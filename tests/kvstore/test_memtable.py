"""Memtable: overwrite absorption (the Section 4.2 write-buffering claim)."""

from repro.kvstore.cells import Cell
from repro.kvstore.memtable import Memtable


class TestMemtable:
    def test_put_get(self):
        table = Memtable()
        table.put(Cell("r", "c", b"v", 1.0))
        assert table.get("r", "c").value == b"v"
        assert table.get("r", "other") is None

    def test_overwrite_keeps_newest(self):
        table = Memtable()
        table.put(Cell("r", "c", b"v1", 1.0))
        table.put(Cell("r", "c", b"v2", 2.0))
        assert table.get("r", "c").value == b"v2"
        assert len(table) == 1

    def test_absorbed_overwrites_counted(self):
        """'Overwrites of the same row ... are relatively inexpensive if
        the row is still in memory': 1000 writes → 1 cell, 999 absorbed."""
        table = Memtable()
        for i in range(1000):
            table.put(Cell("hot", "U1", f"v{i}".encode(), float(i)))
        assert len(table) == 1
        assert table.absorbed_overwrites == 999
        assert table.writes == 1000

    def test_size_tracks_current_cells_not_history(self):
        table = Memtable()
        table.put(Cell("r", "c", b"x" * 1000, 1.0))
        size_after_big = table.size_bytes
        table.put(Cell("r", "c", b"y", 2.0))
        assert table.size_bytes < size_after_big

    def test_tombstones_are_stored(self):
        table = Memtable()
        table.put(Cell("r", "c", None, 1.0))
        assert table.get("r", "c").is_tombstone

    def test_cells_sorted_for_flush(self):
        table = Memtable()
        table.put(Cell("b", "z", b"1", 1.0))
        table.put(Cell("a", "y", b"2", 1.0))
        table.put(Cell("a", "x", b"3", 1.0))
        cells, records = table.sorted_for_flush()
        assert [c.key for c in cells] == [("a", "x"), ("a", "y"), ("b", "z")]
        assert records is None

    def test_clear_preserves_counters(self):
        table = Memtable()
        table.put(Cell("r", "c", b"v", 1.0))
        table.put(Cell("r", "c", b"w", 2.0))
        table.clear()
        assert len(table) == 0 and table.size_bytes == 0
        assert table.absorbed_overwrites == 1  # history kept for stats
