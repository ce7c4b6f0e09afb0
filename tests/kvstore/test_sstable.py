"""SSTables: immutability, bloom gating, persistence, compaction merge."""

from pathlib import Path

import pytest

from repro.errors import StoreError
from repro.kvstore.cells import Cell
from repro.kvstore.commitlog import encode_record
from repro.kvstore.sstable import SSTable, merge_sstables


class TestSSTable:
    def test_point_lookup(self):
        table = SSTable([Cell("r", "c", b"v", 1.0)])
        assert table.get("r", "c").value == b"v"
        assert table.get("r", "x") is None

    def test_duplicate_keys_keep_newest(self):
        table = SSTable([Cell("r", "c", b"old", 1.0),
                         Cell("r", "c", b"new", 2.0)])
        assert table.get("r", "c").value == b"new"
        assert len(table) == 1

    def test_bloom_never_blocks_present_cells(self):
        cells = [Cell(f"r{i}", "c", b"v", 1.0) for i in range(500)]
        table = SSTable(cells)
        assert all(table.might_contain(f"r{i}", "c") for i in range(500))

    def test_bloom_rejects_most_absent_cells(self):
        table = SSTable([Cell(f"r{i}", "c", b"v", 1.0) for i in range(100)])
        hits = sum(1 for i in range(2000)
                   if table.might_contain(f"zz{i}", "c"))
        assert hits < 200  # mostly filtered

    def test_scan_row_returns_all_columns(self):
        table = SSTable([Cell("r", "U1", b"a", 1.0),
                         Cell("r", "U2", b"b", 1.0),
                         Cell("q", "U1", b"c", 1.0)])
        assert sorted(c.column for c in table.scan_row("r")) == ["U1", "U2"]

    def test_size_bytes_positive(self):
        assert SSTable([Cell("r", "c", b"v" * 100, 1.0)]).size_bytes > 100

    def test_sorted_unique_input_equals_shuffled_input(self):
        cells = [Cell(f"r{i:02d}", "c", b"v", 1.0) for i in range(30)]
        shuffled = cells[::-1] + [Cell("r05", "c", b"old", 0.5)]
        assert SSTable(cells).cells() == SSTable(shuffled).cells() == cells

    def test_given_records_require_sorted_unique_cells(self):
        cells = [Cell("b", "c", b"v", 1.0), Cell("a", "c", b"v", 1.0)]
        with pytest.raises(ValueError):
            SSTable(cells, records=[encode_record(cell) for cell in cells])

    def test_generations_increase(self):
        t1 = SSTable([Cell("a", "c", b"", 1.0)])
        t2 = SSTable([Cell("a", "c", b"", 1.0)])
        assert t2.generation > t1.generation


class TestPersistence:
    def test_roundtrip_through_file(self, tmp_path: Path):
        path = tmp_path / "run.sst"
        cells = [Cell("r1", "c", bytes(range(256)), 1.0, ttl=5.0),
                 Cell("r2", "c", None, 2.0)]
        SSTable(cells, path=path)
        loaded = SSTable.load(path)
        assert loaded.get("r1", "c").value == bytes(range(256))
        assert loaded.get("r1", "c").ttl == 5.0
        assert loaded.get("r2", "c").is_tombstone

    def test_roundtrip_is_exact_and_keeps_generation(self, tmp_path: Path):
        path = tmp_path / "run.sst"
        cells = [Cell("clé-行", "U1", bytes(range(256)), 1.5, ttl=30),
                 Cell("r1", "U1", b"", 2.0, ttl=0.25),
                 Cell("r2", "U1", None, 3.0)]
        written = SSTable(cells, generation=41, path=path)
        loaded = SSTable.load(path)
        assert loaded.cells() == written.cells() == cells
        assert loaded.generation == 41
        assert loaded.size_bytes == written.size_bytes
        assert all(loaded.might_contain(c.row, c.column) for c in cells)

    def test_written_through_a_temp_file(self, tmp_path: Path):
        SSTable([Cell("r", "c", b"v", 1.0)], path=tmp_path / "run.sst")
        assert [p.name for p in tmp_path.iterdir()] == ["run.sst"]

    @pytest.mark.parametrize("damage", ["cut", "flip", "not-a-run"])
    def test_damaged_file_is_refused(self, tmp_path: Path, damage: str):
        path = tmp_path / "run.sst"
        SSTable([Cell(f"r{i}", "c", b"v" * 20, 1.0) for i in range(5)],
                path=path)
        data = bytearray(path.read_bytes())
        if damage == "cut":
            data = data[:-7]
        elif damage == "flip":
            data[len(data) // 2] ^= 0xFF
        else:
            data = bytearray(b'{"row":"r0"}\n')
        path.write_bytes(bytes(data))
        with pytest.raises(StoreError):
            SSTable.load(path)

    def test_delete_file(self, tmp_path: Path):
        path = tmp_path / "run.sst"
        table = SSTable([Cell("r", "c", b"v", 1.0)], path=path)
        assert path.exists()
        table.delete_file()
        assert not path.exists()


class TestMergeSSTables:
    def test_newest_version_wins(self):
        old = SSTable([Cell("r", "c", b"old", 1.0)])
        new = SSTable([Cell("r", "c", b"new", 2.0)])
        merged = merge_sstables([old, new], now=3.0)
        assert merged.get("r", "c").value == b"new"

    def test_merge_order_does_not_matter(self):
        old = SSTable([Cell("r", "c", b"old", 1.0)])
        new = SSTable([Cell("r", "c", b"new", 2.0)])
        assert merge_sstables([new, old], now=3.0).get("r", "c").value == \
            b"new"

    def test_ttl_expired_cells_purged(self):
        """Section 4.2: TTL garbage collection happens at compaction."""
        table = SSTable([Cell("dead", "c", b"v", 0.0, ttl=1.0),
                         Cell("alive", "c", b"v", 0.0, ttl=100.0)])
        merged = merge_sstables([table], now=50.0)
        assert merged.get("dead", "c") is None
        assert merged.get("alive", "c") is not None

    def test_tombstones_dropped_in_full_merge(self):
        value = SSTable([Cell("r", "c", b"v", 1.0)])
        delete = SSTable([Cell("r", "c", None, 2.0)])
        merged = merge_sstables([value, delete], now=3.0)
        assert len(merged) == 0

    def test_tombstones_kept_when_requested(self):
        delete = SSTable([Cell("r", "c", None, 2.0)])
        merged = merge_sstables([delete], now=3.0, purge=False)
        assert merged.get("r", "c").is_tombstone

    def test_carried_hashes_fill_the_same_filter_as_rehashing(self):
        runs = [SSTable([Cell(f"r{i}", "c", b"v", float(g), ttl=5.0 + i)
                         for i in range(g, 60, 2)] +
                        [Cell(f"dead{g}", "c", None, float(g))])
                for g in range(4)]
        merged = merge_sstables(runs, now=30.0, generation=9)
        rebuilt = SSTable(merged.cells())
        assert 0 < len(merged) < 60 and merged.generation == 9
        assert merged._index.hashes == rebuilt._index.hashes
        assert merged._bloom._bits == rebuilt._bloom._bits

    def test_merge_shrinks_redundant_runs(self):
        runs = [SSTable([Cell("r", "c", f"v{i}".encode(), float(i))])
                for i in range(5)]
        merged = merge_sstables(runs, now=10.0)
        assert len(merged) == 1
        assert merged.size_bytes < sum(t.size_bytes for t in runs)
