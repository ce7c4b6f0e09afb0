"""StorageNode: LSM read/write paths, flush, compaction, crash recovery."""

import itertools
import math
import random
from pathlib import Path

import pytest

from repro.errors import StoreError
from repro.kvstore.node import SPACE_CAP, StorageNode


def make_clock(step: float = 1.0):
    counter = itertools.count()
    return lambda: next(counter) * step


def make_node(**kwargs) -> StorageNode:
    kwargs.setdefault("clock", make_clock())
    return StorageNode("n1", **kwargs)


class TestReadWrite:
    def test_put_then_get(self):
        node = make_node()
        node.put("r", "U1", b"v")
        value, _ = node.get("r", "U1")
        assert value == b"v"

    def test_get_absent(self):
        value, cost = make_node().get("r", "c")
        assert value is None

    def test_overwrite_returns_newest(self):
        node = make_node()
        node.put("r", "c", b"v1")
        node.put("r", "c", b"v2")
        assert node.get("r", "c")[0] == b"v2"

    def test_delete_hides_value(self):
        node = make_node()
        node.put("r", "c", b"v")
        node.delete("r", "c")
        assert node.get("r", "c")[0] is None

    def test_memtable_hit_is_free(self):
        node = make_node()
        node.put("r", "c", b"v")
        _, cost = node.get("r", "c")
        assert cost == 0.0
        assert node.stats.memtable_hits == 1

    def test_sstable_read_charges_device(self):
        node = make_node(memtable_flush_bytes=1)  # flush on every put
        node.put("r", "c", b"v")
        _, cost = node.get("r", "c")
        assert cost > 0.0
        assert node.stats.sstables_probed >= 1

    def test_ttl_expired_read_is_none(self):
        node = make_node()
        node.put("r", "c", b"v", ttl=0.5)  # clock steps 1.0 per call
        assert node.get("r", "c")[0] is None


class TestFlushAndCompaction:
    def test_flush_moves_memtable_to_sstable(self):
        node = make_node()
        node.put("r", "c", b"v")
        node.flush()
        assert node.memtable_bytes == 0
        assert node.sstable_count == 1
        assert node.get("r", "c")[0] == b"v"

    def test_flush_threshold_triggers_automatically(self):
        node = make_node(memtable_flush_bytes=200)
        for i in range(50):
            node.put(f"r{i}", "c", b"x" * 40)
        assert node.stats.flushes >= 1

    def test_compaction_threshold_collapses_runs(self):
        """Ten equal flushes at T = 4: the fourth meets the space rule (a
        full merge), later ones sit beside the merged run until they are
        four of a size or hold half its bytes."""
        node = make_node(memtable_flush_bytes=1, compaction_threshold=4)
        for i in range(10):
            node.put(f"r{i}", "c", b"v")
        assert node.sstable_count < node.stats.flushes == 10
        assert node.stats.compactions >= 1
        assert node.total_cells() == 10

    def test_partial_merge_takes_the_newest_runs_and_keeps_garbage(self):
        node = make_node(memtable_flush_bytes=1, compaction_threshold=3)
        node.put_many([(f"base{i}", "c", b"v" * 50, None) for i in range(20)])
        node.put("base0", "c", b"soon gone", ttl=0.5)
        node.delete("base1", "c")
        assert node.sstable_count == 3  # too small for the space rule
        before = node.stats.as_dict()
        node.put("r", "c", b"v")  # the three small runs are of a size
        assert node.sstable_count == 2
        assert node.stats.compactions == before["compactions"] + 1
        assert node.stats.ttl_purged_cells == before["ttl_purged_cells"]
        assert node.stats.bytes_compacted - before["bytes_compacted"] == \
            node._sstables[-1].size_bytes
        assert node._sstables[-1].generation > node._sstables[0].generation
        assert node.lookup("base1", "c")[0].is_tombstone
        assert node.get("base0", "c")[0] is None
        node.compact()  # the full merge is the one that purges
        assert node.lookup("base1", "c")[0] is None
        assert node.total_cells() == 19

    @pytest.mark.parametrize("garbage", ["deleted", "expired"])
    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_garbage_is_reclaimed_within_the_space_rules_bound(self, width,
                                                               garbage):
        """A base run that is half garbage, then steady overwrites of the
        live keys: the full merge comes once the newer runs hold
        ``SPACE_CAP`` of the base's bytes (and are T runs), so within
        ``base * SPACE_CAP / smallest flush + T`` flushes."""
        now = [0.0]
        node = StorageNode("n", clock=lambda: now[0],
                           memtable_flush_bytes=1 << 30,
                           compaction_threshold=width)
        live = [f"live{i:03d}" for i in range(100)]
        node.put_many([(row, "c", b"v" * 100, None) for row in live])
        node.put_many([(f"dead{i:03d}", "c", b"v" * 100, 5.0)
                       for i in range(100)])
        node.flush()
        if garbage == "deleted":
            for i in range(100):
                node.delete(f"dead{i:03d}", "c")
        now[0] = 10.0  # the TTLs have lapsed either way
        node.flush()
        base = node.stored_bytes()
        flush_bytes = 10 * node.lookup("live000", "c")[0].size_bytes()
        bound = int(base * SPACE_CAP / flush_bytes) + width
        purged = node.stats.ttl_purged_cells
        flushes = 0
        while node.stats.ttl_purged_cells == purged:
            rows = [live[(10 * flushes + i) % 100] for i in range(10)]
            node.put_many([(row, "c", b"w" * 100, None) for row in rows])
            node.flush()
            flushes += 1
            assert flushes <= bound
        assert node.sstable_count == 1
        assert node.total_cells() == len(live)
        assert all(node.get(row, "c")[0] for row in live)

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_run_count_stays_logarithmic(self, width):
        """The space rule keeps the newer runs under half the base, a
        third of the store; the size rule sorts them into tiers a factor
        T apart, from one flush up, of at most T - 1 runs each."""
        rng = random.Random(width)
        node = make_node(memtable_flush_bytes=2048,
                         compaction_threshold=width)
        most = 0
        for _ in range(10_000):
            node.put(f"row{rng.randrange(3000)}", "c",
                     rng.randbytes(rng.randrange(20, 200)))
            most = max(most, node.sstable_count)
        tiers = 1 + int(math.log(node.stored_bytes() / 3 / 2048, width))
        assert node.stats.flushes > 600
        assert width <= most <= 1 + (width - 1) * tiers

    def test_compaction_purges_ttl_garbage(self):
        clock = make_clock(10.0)  # big steps so TTLs lapse quickly
        node = StorageNode("n", clock=clock, memtable_flush_bytes=1,
                           compaction_threshold=100)
        node.put("dead", "c", b"v", ttl=1.0)
        node.put("alive", "c", b"v")
        purged_before = node.stats.ttl_purged_cells
        node.compact()
        assert node.stats.ttl_purged_cells > purged_before
        assert node.get("alive", "c")[0] == b"v"
        assert node.get("dead", "c")[0] is None

    def test_more_flushes_more_files_to_check(self):
        """The paper's observation: un-compacted rows cost more probes."""
        node = make_node(memtable_flush_bytes=1, compaction_threshold=100)
        for i in range(6):
            node.put("hot", "c", f"v{i}".encode())
        many_runs = node.sstable_count
        node.get("hot", "c")
        assert many_runs == 6
        node.compact()
        assert node.sstable_count == 1

    def test_background_cost_accrues_and_drains(self):
        node = make_node()
        node.put("r", "c", b"v" * 1000)
        node.flush()
        assert node.pending_background_s > 0
        drained = node.take_background_cost()
        assert drained > 0
        assert node.take_background_cost() == 0.0


class TestCrashRecovery:
    def test_crash_loses_memtable_recover_replays_log(self):
        node = make_node()
        node.put("r", "c", b"precious")
        node.crash()
        with pytest.raises(StoreError):
            node.get("r", "c")
        replayed = node.recover()
        assert replayed == 1
        assert node.get("r", "c")[0] == b"precious"

    def test_flushed_data_survives_without_log(self):
        node = make_node()
        node.put("r", "c", b"v")
        node.flush()  # truncates the log
        node.crash()
        node.recover()
        assert node.get("r", "c")[0] == b"v"

    def test_on_disk_node_persists_sstables(self, tmp_path: Path):
        node = StorageNode("n", clock=make_clock(), data_dir=tmp_path)
        node.put("r", "c", b"v")
        node.flush()
        sst_files = list(tmp_path.glob("*.sst"))
        assert len(sst_files) == 1


class TestIntrospection:
    def test_total_cells_and_bytes(self):
        node = make_node()
        node.put("a", "c", b"v")
        node.put("b", "c", b"v")
        assert node.total_cells() == 2
        assert node.stored_bytes() > 0

    def test_stats_as_dict(self):
        node = make_node()
        node.put("r", "c", b"v")
        node.get("r", "c")
        snap = node.stats.as_dict()
        assert snap["puts"] == 1 and snap["gets"] == 1

    def test_absorbed_overwrites_visible(self):
        node = make_node()
        for i in range(10):
            node.put("hot", "c", f"{i}".encode())
        assert node.absorbed_overwrites == 9


class TestCostModelPinned:
    """The simulated costs are calibrated in the bytes the store used to
    write as JSON lines. The files went binary; the charges must not
    move. The numbers below are what the JSON-lines implementation
    produced for this run (PR 13, commit 29f3e89)."""

    @staticmethod
    def seeded_run(data_dir) -> StorageNode:
        rng = random.Random(20120827)
        ticks = itertools.count()
        node = StorageNode("n1", clock=lambda: next(ticks) * 0.25,
                           memtable_flush_bytes=4096, compaction_threshold=3,
                           data_dir=data_dir)
        rows = [f"user{i}" for i in range(120)] + ["clé-é", "行-7",
                                                   "tab\tq\"uote"]
        ttls = [None, None, None, 30, 12.5, 1e9]
        for _ in range(1500):
            row = rng.choice(rows)
            roll = rng.random()
            if roll < 0.45:
                node.put(row, "U1", rng.randbytes(rng.randrange(0, 200)),
                         ttl=rng.choice(ttls))
            elif roll < 0.55:
                node.put_many([(rng.choice(rows), "U2",
                                rng.randbytes(rng.randrange(1, 64)), None)
                               for _ in range(4)])
            elif roll < 0.60:
                node.delete(row, "U1")
            else:
                node.get(row, rng.choice(["U1", "U2", "U3"]))
        return node

    @pytest.mark.parametrize("durable", [True, False])
    def test_counters_equal_the_json_lines_store(self, tmp_path, durable):
        node = self.seeded_run(tmp_path if durable else None)
        stats = node.stats.as_dict()
        assert {name: stats[name] for name in (
            "puts", "gets", "deletes", "memtable_hits", "flushes",
            "bytes_flushed")} == {
            "puts": 1302, "gets": 624, "deletes": 77, "memtable_hits": 34,
            "flushes": 27, "bytes_flushed": 113567}
        assert node.absorbed_overwrites == 112
        assert node._log.size_bytes == 7927
        node.close()

    @pytest.mark.parametrize("durable", [True, False])
    def test_counters_that_follow_the_compaction_policy(self, tmp_path,
                                                        durable):
        """Not the file format: these count which runs are merged and
        probed, so they follow the compaction policy — the space and size
        rules of PR 23 (at the merge-everything-at-the-third-run policy
        before it: 13 merges of 308338 bytes, 960 purged, 254 probes, 597
        skips, 766773 bytes written, 0.029797544 s, 21907 bytes stored)."""
        node = self.seeded_run(tmp_path if durable else None)
        stats = node.stats.as_dict()
        assert {name: stats[name] for name in (
            "compactions", "bytes_compacted", "ttl_purged_cells",
            "sstables_probed", "bloom_skips")} == {
            "compactions": 10, "bytes_compacted": 244751,
            "ttl_purged_cells": 876, "sstables_probed": 260,
            "bloom_skips": 679}
        device = node.device.stats.as_dict()
        assert device.pop("busy_time_s") == pytest.approx(0.029923176)
        assert device == {
            "random_reads": 260, "random_writes": 0,
            "sequential_bytes_read": 244751,
            "sequential_bytes_written": 711157}
        assert node.stored_bytes() == 29862
        node.close()

    def test_durable_run_reopens_to_the_same_answers(self, tmp_path: Path):
        node = self.seeded_run(tmp_path)
        node.close()
        frozen = lambda: 400.0  # noqa: E731 -- past the run's last tick
        node.clock = frozen
        reopened = StorageNode.open("n1", tmp_path, clock=frozen)
        rows = sorted({row for row, _ in node._memtable._cells}
                      | {cell.row for t in node._sstables for cell in t.cells()})
        assert len(rows) > 100
        for row in rows:
            for column in ("U1", "U2"):
                assert reopened.get(row, column)[0] == \
                    node.get(row, column)[0]
