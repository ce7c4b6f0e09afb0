"""StorageNode: LSM read/write paths, flush, compaction, crash recovery."""

import itertools
import random
from pathlib import Path

import pytest

from repro.errors import StoreError
from repro.kvstore.node import StorageNode


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
        node = make_node(memtable_flush_bytes=1, compaction_threshold=4)
        for i in range(10):
            node.put(f"r{i}", "c", b"v")
        assert node.sstable_count < 4
        assert node.stats.compactions >= 1

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
        assert node.stats.as_dict() == {
            "puts": 1302, "gets": 624, "deletes": 77, "memtable_hits": 34,
            "sstables_probed": 254, "bloom_skips": 597, "flushes": 27,
            "compactions": 13, "bytes_flushed": 113567,
            "bytes_compacted": 308338, "ttl_purged_cells": 960}
        device = node.device.stats.as_dict()
        assert device.pop("busy_time_s") == pytest.approx(0.029797544)
        assert device == {
            "random_reads": 254, "random_writes": 0,
            "sequential_bytes_read": 308338,
            "sequential_bytes_written": 766773}
        assert node.absorbed_overwrites == 112
        assert node._log.size_bytes == 7927
        assert node.stored_bytes() == 21907
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
