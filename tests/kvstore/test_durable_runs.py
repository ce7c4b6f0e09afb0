"""Durable runs keep their index in memory and their cells in their files:
each run file is exactly its cells' records, a reopened node answers like
the live one, file handles are released, and a run cell costs little heap."""

import gc
import itertools
import os
import tracemalloc

import pytest

from repro.errors import StoreError
from repro.kvstore import sstable
from repro.kvstore.api import ConsistencyLevel
from repro.kvstore.cells import Cell
from repro.kvstore.cluster import ReplicatedKVStore
from repro.kvstore.commitlog import encode_record
from repro.kvstore.node import StorageNode

ROWS = [f"row{i:03d}" for i in range(48)] + ["clé-行", 'tab\tq"uote']
COLUMNS = ("U1", "U2", "U3")


def build(data_dir):
    now = [0.0]
    node = StorageNode("n1", clock=lambda: now[0], data_dir=data_dir,
                       compaction_threshold=100)
    return node, now


def phases(node, now):
    """Four flushes of overwrites, deletes and TTL'd cells, a partial
    merge, a full (purging) one, a flush after them, then writes left in
    the log; yields after each step that changes the run files."""
    for step in range(4):
        for i, row in enumerate(ROWS):
            now[0] += 0.25
            if (i + step) % 3:
                node.put(row, "U1", f"{row}/{step}".encode() * (1 + i % 4),
                         ttl=2.0 if i % 5 == step else None)
            if i % 7 == step:
                node.delete(row, "U2")
            elif i % 4 == step:
                node.put(row, "U2", bytes([i, step]) * 9)
        node.flush()
        yield f"flush {step}"
    node._merge_newest(3)
    yield "partial merge"
    node.compact()
    yield "full merge"
    for i, row in enumerate(ROWS[::3]):
        now[0] += 0.25
        node.put(row, "U3", b"late", ttl=1.0 if i % 2 else None)
        node.delete(row, "U1")
    node.flush()
    yield "flush after the merges"
    node.put(ROWS[0], "U1", b"logged")
    node.delete(ROWS[1], "U2")


@pytest.mark.parametrize("buffer", [None, 64, 1000])
def test_every_run_file_is_its_cells_records(tmp_path, monkeypatch, buffer):
    """Flushes write the log's records and merges copy their inputs'
    (through a buffer smaller than a record, or that records straddle):
    each file is the header plus ``encode_record`` of the cells an
    in-memory twin holds in that run, in key order."""
    if buffer is not None:
        monkeypatch.setattr(sstable, "_BUFFER", buffer)
    node, now = build(tmp_path)
    twin, twin_now = build(None)
    for phase, _ in zip(phases(node, now), phases(twin, twin_now)):
        files = sorted(tmp_path.glob("*.sst"))
        assert files == [table.path for table in node._sstables], phase
        assert len(files) == len(twin._sstables), phase
        for path, run in zip(files, twin._sstables):
            cells = run.cells()
            assert path.read_bytes() == sstable._FILE_HEADER.pack(
                sstable._MAGIC, run.generation, len(cells)) + b"".join(
                map(encode_record, cells)), (phase, path.name)
    assert node.stats.ttl_purged_cells == twin.stats.ttl_purged_cells > 0


def test_a_reopened_node_answers_like_the_live_one(tmp_path):
    node, now = build(tmp_path)
    twin, twin_now = build(None)
    list(phases(node, now))
    list(phases(twin, twin_now))
    node.close()
    read_at = now[0] + 0.5  # some late TTLs have lapsed, some not
    node.clock = twin.clock = lambda: read_at
    reopened = StorageNode.open("n1", tmp_path, clock=lambda: read_at)

    found = []
    for row in ROWS + ["never"]:
        for column in COLUMNS:
            cell = node.lookup(row, column)[0]
            found.append(cell)
            assert reopened.lookup(row, column)[0] == cell, (row, column)
            assert twin.lookup(row, column)[0] == cell, (row, column)
            assert reopened.get(row, column)[0] == node.get(row, column)[0]
        assert reopened.scan_row(row)[0] == node.scan_row(row)[0] \
            == twin.scan_row(row)[0]
    for column in COLUMNS:
        assert reopened.column_cells(column) == node.column_cells(column) \
            == twin.column_cells(column)
    assert any(cell is not None and cell.is_tombstone for cell in found)
    assert any(cell is not None and cell.expired(read_at) for cell in found)
    assert any(cell is not None and cell.live(read_at) for cell in found)


def test_a_record_damaged_after_the_load_is_refused_when_read(tmp_path):
    path = tmp_path / "run.sst"
    sstable.SSTable([Cell(f"r{i}", "c", b"v" * 20, 1.0) for i in range(3)],
                    path=path)
    run = sstable.SSTable.load(path)
    data = bytearray(path.read_bytes())
    data[-10] ^= 0xFF  # a value byte of the last record
    path.write_bytes(bytes(data))
    assert run.get("r0", "c").value == b"v" * 20
    with pytest.raises(StoreError):
        run.get("r2", "c")


def test_heap_per_run_cell_is_the_index(tmp_path):
    """Runs, flushed and merged, cost their index: at most 200 B of Python
    heap per run cell, not a resident ``Cell`` and its value."""
    ticks = itertools.count()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        node = StorageNode("n1", clock=lambda: next(ticks) * 1e-3,
                           data_dir=tmp_path, memtable_flush_bytes=1 << 16,
                           compaction_threshold=4)
        for i in range(12_000):
            node.put(f"user{i * 7919 % 6000}", "P", bytes(300))
        node.flush()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    cells = sum(len(table) for table in node._sstables)
    assert node.stats.compactions > 0 and cells >= 6000
    assert held / cells <= 200, f"{held / cells:.0f} B per run cell"
    node.close()


def open_fds() -> int:
    gc.collect()  # files other code dropped unclosed
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts the entries of /proc/self/fd")
class TestHandles:
    @staticmethod
    def cycle(data_dir, i: int) -> StorageNode:
        """Open, write, flush twice, read both runs, merge, read."""
        node = StorageNode.open("n1", data_dir, compaction_threshold=100)
        node.put(f"first{i}", "U1", b"a" * 100)
        node.flush()
        node.put(f"second{i}", "U1", b"b" * 100)
        node.flush()
        assert node.get(f"first{i}", "U1")[0] == b"a" * 100
        assert node.get(f"second{i}", "U1")[0] == b"b" * 100
        node.compact()
        assert node.get(f"first{i}", "U1")[0] == b"a" * 100
        return node

    def test_close_releases_every_handle(self, tmp_path):
        self.cycle(tmp_path, 0).close()
        before = open_fds()
        for i in range(1, 21):
            self.cycle(tmp_path, i).close()
        assert open_fds() == before

    def test_a_dropped_node_releases_its_handles(self, tmp_path):
        self.cycle(tmp_path, 0).close()
        before = open_fds()
        for i in range(1, 21):
            node = self.cycle(tmp_path, i)
            del node
        assert open_fds() == before

    def test_a_failed_open_leaves_nothing_open(self, tmp_path):
        self.cycle(tmp_path, 0).close()
        node = StorageNode.open("n1", tmp_path, compaction_threshold=100)
        node.put("more", "U1", b"m" * 100)
        node.flush()
        node.close()
        newest = sorted(tmp_path.glob("*.sst"))[-1]
        newest.write_bytes(newest.read_bytes()[:-3])
        before = open_fds()
        for _ in range(3):
            with pytest.raises(StoreError):
                StorageNode.open("n1", tmp_path)
        assert open_fds() == before

    def test_replicated_store_close(self, tmp_path):
        def cycle() -> ReplicatedKVStore:
            store = ReplicatedKVStore.reopen(["a", "b"], tmp_path,
                                             replication_factor=2)
            store.write("k", "c", b"v" * 50,
                        consistency=ConsistencyLevel.ALL)
            store.flush_all()
            assert store.read("k", "c", ConsistencyLevel.ALL).value == \
                b"v" * 50
            return store

        cycle().close()
        before = open_fds()
        for _ in range(5):
            cycle().close()
        assert open_fds() == before


def test_a_replicated_read_hashes_the_key_once(monkeypatch):
    store = ReplicatedKVStore(["a", "b", "c"], replication_factor=3,
                              memtable_flush_bytes=1)
    store.write("k", "c", b"v", consistency=ConsistencyLevel.ALL)
    calls = []
    real = sstable.key_hashes

    def counting(row, column):
        calls.append((row, column))
        return real(row, column)

    monkeypatch.setattr("repro.kvstore.cluster.key_hashes", counting)
    monkeypatch.setattr("repro.kvstore.node.key_hashes", counting)
    assert store.read("k", "c", ConsistencyLevel.ALL).value == b"v"
    assert calls == [("k", "c")]
