"""Cold restarts: a StorageNode reopened from disk keeps everything."""

import itertools
import os
from pathlib import Path

import pytest

from repro.errors import StoreError
from repro.kvstore.cells import Cell
from repro.kvstore.commitlog import encode_record
from repro.kvstore.node import StorageNode
from repro.kvstore.sstable import SSTable


def clock():
    counter = itertools.count()
    return lambda: float(next(counter))


class TestReopen:
    def test_flushed_data_survives_reopen(self, tmp_path: Path):
        node = StorageNode("n1", clock=clock(), data_dir=tmp_path)
        for i in range(20):
            node.put(f"row{i}", "U1", f"value{i}".encode())
        node.flush()
        del node

        reopened = StorageNode.open("n1", tmp_path, clock=clock())
        for i in range(20):
            assert reopened.get(f"row{i}", "U1")[0] == f"value{i}".encode()

    def test_unflushed_writes_survive_via_commit_log(self, tmp_path: Path):
        node = StorageNode("n1", clock=clock(), data_dir=tmp_path,
                           memtable_flush_bytes=1 << 30)
        node.put("precious", "U1", b"never-flushed")
        del node  # "process dies" without flushing

        reopened = StorageNode.open("n1", tmp_path, clock=clock())
        assert reopened.get("precious", "U1")[0] == b"never-flushed"

    def test_mixed_layers_latest_wins(self, tmp_path: Path):
        node = StorageNode("n1", clock=clock(), data_dir=tmp_path)
        node.put("row", "U1", b"v1")
        node.flush()
        node.put("row", "U1", b"v2")
        node.flush()
        node.put("row", "U1", b"v3")  # only in commit log
        del node

        reopened = StorageNode.open("n1", tmp_path, clock=clock())
        assert reopened.get("row", "U1")[0] == b"v3"

    def test_reopen_then_continue_writing(self, tmp_path: Path):
        node = StorageNode("n1", clock=clock(), data_dir=tmp_path)
        node.put("row", "U1", b"old")
        node.flush()
        del node

        reopened = StorageNode.open("n1", tmp_path, clock=clock())
        reopened.put("row", "U1", b"new")
        reopened.flush()
        reopened.compact()
        assert reopened.get("row", "U1")[0] == b"new"

    def test_replayed_log_survives_a_second_crash(self, tmp_path: Path):
        """Replayed mutations are re-logged, so reopen is idempotent."""
        node = StorageNode("n1", clock=clock(), data_dir=tmp_path,
                           memtable_flush_bytes=1 << 30)
        node.put("row", "U1", b"v")
        del node
        once = StorageNode.open("n1", tmp_path, clock=clock())
        del once
        twice = StorageNode.open("n1", tmp_path, clock=clock())
        assert twice.get("row", "U1")[0] == b"v"

    def test_compact_after_reopen_does_not_eat_its_inputs(self, tmp_path):
        """Run files are named from a generation that keeps growing across
        restarts. Named from counters that restart at 0, the second
        compaction wrote its output onto one of its own inputs and then
        deleted it: every key came back ``None``."""
        node = StorageNode("n1", clock=clock(), data_dir=tmp_path)
        node.put("a", "U1", b"1")
        node.flush()
        node.put("b", "U1", b"2")
        node.flush()
        node.compact()
        node.close()

        node = StorageNode.open("n1", tmp_path, clock=clock())
        node.put("c", "U1", b"3")
        node.flush()
        node.compact()
        node.close()

        node = StorageNode.open("n1", tmp_path, clock=clock())
        assert [node.get(row, "U1")[0] for row in "abc"] == [b"1", b"2", b"3"]
        assert node.sstable_count == 1

    def test_runs_reopen_in_generation_order(self, tmp_path: Path):
        """Not in file-timestamp order: the newest write wins even when
        its run's file looks the oldest."""
        node = StorageNode("n1", clock=clock(), data_dir=tmp_path,
                           compaction_threshold=100)
        for version in range(12):  # past 9 -> 10, where names once mis-sorted
            node.put("row", "U1", f"v{version}".encode())
            node.flush()
        node.close()
        runs = sorted(tmp_path.glob("*.sst"))
        assert len(runs) == 12
        for age, run in enumerate(runs):
            os.utime(run, ns=(10**18 - age, 10**18 - age))

        reopened = StorageNode.open("n1", tmp_path, clock=clock())
        assert reopened.get("row", "U1")[0] == b"v11"

    def test_reopen_that_dies_before_writing_loses_nothing(self, tmp_path):
        """``open`` continues the log in place: no moment at which the
        acknowledged writes exist only in the new process's memory."""
        node = StorageNode("n1", clock=clock(), data_dir=tmp_path,
                           memtable_flush_bytes=1 << 30)
        node.put("precious", "U1", b"acked")
        node.close()
        log_file = tmp_path / "n1.commitlog"
        logged = log_file.read_bytes()
        assert logged

        doomed = StorageNode.open("n1", tmp_path, clock=clock())
        assert log_file.read_bytes() == logged  # untouched by the reopen
        del doomed  # dies without a single write

        survivor = StorageNode.open("n1", tmp_path, clock=clock())
        assert survivor.get("precious", "U1")[0] == b"acked"

    def test_torn_log_tail_is_ignored(self, tmp_path: Path):
        node = StorageNode("n1", clock=clock(), data_dir=tmp_path,
                           memtable_flush_bytes=1 << 30)
        node.put("whole", "U1", b"acked")
        node.close()
        torn = encode_record(Cell("torn", "U1", b"never-acked", 9.0))
        with (tmp_path / "n1.commitlog").open("ab") as handle:
            handle.write(torn[:len(torn) // 2])

        reopened = StorageNode.open("n1", tmp_path, clock=clock())
        assert reopened.get("whole", "U1")[0] == b"acked"
        assert reopened.get("torn", "U1")[0] is None
        reopened.put("after", "U1", b"acked-too")
        reopened.close()
        again = StorageNode.open("n1", tmp_path, clock=clock())
        assert again.get("after", "U1")[0] == b"acked-too"

    def test_half_written_run_is_discarded(self, tmp_path: Path):
        """A flush that died before its rename leaves ``*.sst.tmp``; the
        cells are still in the log, so the file is dropped."""
        node = StorageNode("n1", clock=clock(), data_dir=tmp_path,
                           memtable_flush_bytes=1 << 30)
        node.put("row", "U1", b"v")
        node.close()
        whole = tmp_path / "whole.sst"
        SSTable([Cell("ghost", "U1", b"boo", 0.0)], generation=7, path=whole)
        half = tmp_path / "n1-00000007.sst.tmp"
        half.write_bytes(whole.read_bytes()[:-5])
        whole.unlink()

        reopened = StorageNode.open("n1", tmp_path, clock=clock())
        assert not half.exists()
        assert reopened.sstable_count == 0
        assert reopened.get("row", "U1")[0] == b"v"
        assert reopened.get("ghost", "U1")[0] is None

    def test_crash_between_run_rename_and_log_truncate(self, tmp_path):
        """The flushed cells are then in the newest run *and* the log."""
        node = StorageNode("n1", clock=clock(), data_dir=tmp_path,
                           memtable_flush_bytes=1 << 30)
        node.put("row", "U1", b"old")
        node.flush()
        node.put("row", "U1", b"new")
        node.delete("gone", "U1")
        logged = (tmp_path / "n1.commitlog").read_bytes()
        node.flush()
        node.close()
        (tmp_path / "n1.commitlog").write_bytes(logged)  # truncate undone

        reopened = StorageNode.open("n1", tmp_path, clock=clock())
        assert reopened.get("row", "U1")[0] == b"new"
        assert reopened.get("gone", "U1")[0] is None

    def test_crash_while_compaction_deletes_its_inputs(self, tmp_path):
        """Inputs go oldest first, so what is left beside the merged run
        is the newest ones: a purged tombstone must not let the value it
        deleted come back."""
        node = StorageNode("n1", clock=clock(), data_dir=tmp_path,
                           compaction_threshold=100)
        node.put("kept", "U1", b"v1")
        node.put("deleted", "U1", b"doomed")
        node.flush()
        node.delete("deleted", "U1")
        node.put("kept", "U1", b"v2")
        node.flush()
        newest_input = node._sstables[-1].path
        saved = newest_input.read_bytes()
        node.compact()
        node.close()
        newest_input.write_bytes(saved)  # its delete never happened

        reopened = StorageNode.open("n1", tmp_path, clock=clock())
        assert reopened.sstable_count == 2
        assert reopened.get("kept", "U1")[0] == b"v2"
        assert reopened.get("deleted", "U1")[0] is None
        reopened.put("more", "U1", b"x")
        reopened.flush()
        reopened.compact()
        assert reopened.get("kept", "U1")[0] == b"v2"
        assert reopened.get("deleted", "U1")[0] is None

    @pytest.mark.parametrize("step", ["tmp", 0, 1, 2, 3, 4])
    @pytest.mark.parametrize("count", [3, 4])
    def test_crash_at_every_step_of_a_merge(self, tmp_path, monkeypatch,
                                            count, step):
        """A merge of the newest three runs of four (partial: keeps
        garbage) or of all four (full: purges) dies with its output still
        ``*.tmp``, or renamed with ``step`` of its inputs unlinked (all
        of them: the node object is abandoned). The directory reopens to
        the answers of a twin whose merge finished."""
        now = [0.0]

        def build(data_dir):
            node = StorageNode("n1", clock=lambda: now[0], data_dir=data_dir,
                               compaction_threshold=100)
            for row in ("live", "deleted", "expired", "over"):
                node.put(row, "U1", row.encode() * 40)
            node.flush()
            node.delete("deleted", "U1")
            node.flush()
            node.put("expired", "U1", b"briefly", ttl=5.0)
            node.flush()
            node.put("over", "U1", b"written")
            node.flush()
            node.put("logged", "U1", b"unflushed")
            return node

        def answers(node):
            return {row: node.get(row, "U1")[0] for row in
                    ("live", "deleted", "expired", "over", "logged", "never")}

        twin = build(tmp_path / "twin")
        node = build(tmp_path / "crashed")
        now[0] = 10.0  # the TTL has lapsed
        twin._merge_newest(count)
        expected = answers(twin)
        assert expected == {"live": b"live" * 40, "deleted": None,
                            "expired": None, "over": b"written",
                            "logged": b"unflushed", "never": None}

        inputs = [table.path for table in node._sstables[-count:]]
        unlinked = []

        def unlink(path, missing_ok=False):
            if len(unlinked) == step:
                raise OSError("injected")
            unlinked.append(path)
            os.unlink(path)

        def replace(temp, path):
            raise OSError("injected")

        with monkeypatch.context() as patch:
            if step == "tmp":
                patch.setattr(os, "replace", replace)
            else:
                patch.setattr(Path, "unlink", unlink)
            if step == "tmp" or step < count:
                with pytest.raises(StoreError):
                    node._merge_newest(count)
            else:
                node._merge_newest(count)
        # Oldest first, so what is left is the newest inputs.
        assert unlinked == inputs[:len(unlinked)]
        assert bool(list((tmp_path / "crashed").glob("*.tmp"))) == \
            (step == "tmp")
        node.close()

        reopened = StorageNode.open("n1", tmp_path / "crashed",
                                    clock=lambda: now[0])
        assert answers(reopened) == expected
        assert not list((tmp_path / "crashed").glob("*.tmp"))
        reopened.compact()  # takes the leftover inputs with it
        assert len(list((tmp_path / "crashed").glob("*.sst"))) == 1
        assert answers(reopened) == expected

    def test_reopened_cells_share_one_column_string(self, tmp_path: Path):
        """One ``str`` per column name in the reopened store, runs and
        replayed log alike, not one per cell."""
        node = StorageNode("n1", clock=clock(), data_dir=tmp_path)
        for i in range(50):
            node.put(f"row{i}", "ProfileUpdater", b"v")
        node.flush()
        node.put("logged", "ProfileUpdater", b"v")
        node.close()

        reopened = StorageNode.open("n1", tmp_path, clock=clock())
        loaded = reopened._sstables[0].cells() + \
            list(reopened._memtable._cells.values())
        assert len(loaded) == 51
        assert len({id(cell.column) for cell in loaded}) == 1

    def test_empty_directory_opens_empty(self, tmp_path: Path):
        node = StorageNode.open("fresh", tmp_path, clock=clock())
        assert node.get("anything", "U1")[0] is None
        assert node.sstable_count == 0


class TestClusterReopen:
    def test_replicated_store_cold_restart(self, tmp_path: Path):
        from repro.kvstore.api import ConsistencyLevel
        from repro.kvstore.cluster import ReplicatedKVStore

        store = ReplicatedKVStore(["a", "b", "c"], replication_factor=2,
                                  clock=clock(), data_dir=tmp_path)
        for i in range(20):
            store.write(f"row{i}", "U1", f"v{i}".encode(),
                        consistency=ConsistencyLevel.ALL)
        store.flush_all()
        store.write("unflushed", "U1", b"via-log",
                    consistency=ConsistencyLevel.ALL)
        del store

        again = ReplicatedKVStore.reopen(["a", "b", "c"], tmp_path,
                                         replication_factor=2,
                                         clock=clock())
        for i in range(20):
            assert again.read(f"row{i}", "U1",
                              ConsistencyLevel.ALL).value == \
                f"v{i}".encode()
        # Commit-log-only data survives too.
        assert again.read("unflushed", "U1",
                          ConsistencyLevel.ALL).value == b"via-log"

    def test_reopen_then_write_more(self, tmp_path: Path):
        from repro.kvstore.cluster import ReplicatedKVStore

        store = ReplicatedKVStore(["a"], replication_factor=1,
                                  clock=clock(), data_dir=tmp_path)
        store.write("k", "c", b"v1")
        store.flush_all()
        del store
        again = ReplicatedKVStore.reopen(["a"], tmp_path,
                                         replication_factor=1,
                                         clock=clock())
        again.write("k", "c", b"v2")
        assert again.read("k", "c").value == b"v2"
