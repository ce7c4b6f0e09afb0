"""SSTables: immutable sorted runs flushed from the memtable.

Each flush writes one SSTable; point reads consult SSTables newest-first,
skipping files whose bloom filter rules the row out. This is the mechanism
behind the paper's observation that "the more times a row is flushed to
disk by the store since its last file compaction, the more files will have
to be checked for the row when it needs to be retrieved" (Section 4.2) —
compaction (see :mod:`repro.kvstore.node`) merges runs back down.

In memory a run is what its name says, a sorted table: the cells in key
order, searched by bisection, with a bloom filter in front. There is no
hash index beside them, so a run's memory is little more than its cells.

SSTables can live purely in memory (simulator mode) or be persisted in a
data directory (durability tests). A run file is written once and never
edited::

    file header  <8sQI  magic "MUPSST01", generation, cell count
    cells        one binary record each, in (row, column) order — the
                 record the commit log writes (:mod:`repro.kvstore.commitlog`)

The file is streamed once, through a large buffer, to ``<name>.tmp``,
which is then renamed over ``<name>``: a reader finds a complete run or
none, and a leftover ``*.tmp`` is a flush that never finished. As with
the commit log there is no ``fsync``. The generation in the header is what
orders runs after a restart.
"""

from __future__ import annotations

import itertools
import operator
import os
from bisect import bisect_left
import struct
from array import array
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import StoreError
from repro.kvstore.bloom import BloomFilter, hash_pair
from repro.kvstore.cells import Cell, CellKey, newest_by
from repro.kvstore.commitlog import encode_record, read_records

_sstable_ids = itertools.count(1)

_FILE_HEADER = struct.Struct("<8sQI")
_MAGIC = b"MUPSST01"
#: Records are encoded straight into a buffer of this size, so a run of
#: any length costs this much memory to write, in a few large writes.
_WRITE_BUFFER = 1 << 18


_cell_key = operator.attrgetter("row", "column")


def key_hashes(row: str, column: str) -> Tuple[int, int]:
    """The bloom hash pair of a cell key, the same for every run."""
    return hash_pair(f"{row}\x00{column}")


class SSTable:
    """One immutable sorted run of cells.

    Args:
        cells: Cells in any order; stored sorted by ``(row, column)``.
            For duplicate keys the newest ``write_ts`` wins. Input that is
            already sorted and free of duplicates (a memtable, a merge
            result, a loaded file) is recognised and taken as it is.
        generation: Monotonic ID; higher = newer. Auto-assigned when 0.
        path: Optional file to persist the run to.
        hashes: Bloom hash pairs of ``cells``, flat (``h1, h2`` per cell,
            in order), when the caller already has them; ``cells`` must
            then be sorted and free of duplicates.
    """

    def __init__(self, cells: Iterable[Cell], generation: int = 0,
                 path: Optional[Path] = None,
                 hashes: Optional[array] = None) -> None:
        cells = list(cells)
        keys = [(cell.row, cell.column) for cell in cells]
        # Strictly ascending keys: sorted, and no key twice.
        ready = all(map(operator.lt, keys, itertools.islice(keys, 1, None)))
        if hashes is not None and not (ready
                                       and len(hashes) == 2 * len(cells)):
            raise ValueError("hashes must be one pair per cell, of cells "
                             "that are sorted and unique")
        if not ready:
            newest = newest_by(cells, "key")
            keys = sorted(newest)
            cells = [newest[key] for key in keys]
        #: Sorted by key and searched by bisection: no index beside the
        #: cells, so a run costs memory for little but what it stores.
        self._cells: List[Cell] = cells
        self.generation = generation or next(_sstable_ids)
        if hashes is None:
            hashes = array("Q")
            for row, column in keys:
                hashes.extend(key_hashes(row, column))
        #: ``h1, h2`` of each cell's key, in cell order; a merge hands the
        #: survivors' pairs to the merged run.
        self._hashes = hashes
        self._bloom = BloomFilter(expected_items=max(1, len(cells)))
        add_hashed = self._bloom.add_hashed
        flat = iter(hashes)
        for h1, h2 in zip(flat, flat):
            add_hashed(h1, h2)
        self._size = sum(c.size_bytes() for c in cells)
        self._path = Path(path) if path is not None else None
        if self._path is not None:
            self._persist()

    # -- reads --------------------------------------------------------------
    def might_contain(self, row: str, column: str,
                      hashes: Optional[Tuple[int, int]] = None) -> bool:
        """Bloom-filter check; False means the cell is definitely absent.
        ``hashes`` is ``key_hashes(row, column)`` when the caller probes
        several runs for one key and has hashed it already."""
        if hashes is None:
            hashes = key_hashes(row, column)
        return self._bloom.might_contain_hashed(*hashes)

    def get(self, row: str, column: str) -> Optional[Cell]:
        """The cell (including tombstones) or None."""
        cells = self._cells
        at = bisect_left(cells, (row, column), key=_cell_key)
        if at < len(cells):
            cell = cells[at]
            if cell.row == row and cell.column == column:
                return cell
        return None

    def cells(self) -> List[Cell]:
        """All cells in ``(row, column)`` order."""
        return list(self._cells)

    def scan_row(self, row: str) -> List[Cell]:
        """All cells of one row (bulk-read path, Section 5)."""
        return [c for c in self._cells if c.row == row]

    def __len__(self) -> int:
        return len(self._cells)

    @property
    def size_bytes(self) -> int:
        """Approximate on-disk size of the run."""
        return self._size

    @property
    def path(self) -> Optional[Path]:
        """The backing file, if persisted."""
        return self._path

    # -- persistence ----------------------------------------------------------
    def _persist(self) -> None:
        assert self._path is not None
        temp = self._path.with_name(self._path.name + ".tmp")
        try:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            with temp.open("wb", buffering=_WRITE_BUFFER) as handle:
                handle.write(_FILE_HEADER.pack(_MAGIC, self.generation,
                                               len(self._cells)))
                handle.writelines(map(encode_record, self._cells))
            os.replace(temp, self._path)
        except OSError as exc:
            raise StoreError(f"sstable persist failed: {exc}") from exc

    @classmethod
    def load(cls, path: Path) -> "SSTable":
        """Reconstruct an SSTable, generation included, from its file."""
        try:
            with Path(path).open("rb") as handle:
                header = handle.read(_FILE_HEADER.size)
                if (len(header) < _FILE_HEADER.size
                        or not header.startswith(_MAGIC)):
                    raise StoreError(
                        f"sstable load failed: {path} is not a run file")
                _, generation, count = _FILE_HEADER.unpack(header)
                cells, leftover = read_records(handle)
        except OSError as exc:
            raise StoreError(f"sstable load failed: {exc}") from exc
        if leftover or len(cells) != count:
            raise StoreError(
                f"sstable load failed: {path} is corrupt after "
                f"{len(cells)} of {count} cells")
        table = cls(cells, generation=generation)
        table._path = Path(path)
        return table

    def delete_file(self) -> None:
        """Remove the backing file after compaction supersedes this run."""
        if self._path is not None:
            try:
                self._path.unlink(missing_ok=True)
            except OSError as exc:
                raise StoreError(f"sstable delete failed: {exc}") from exc


def merge_sstables(tables: List[SSTable], now: float,
                   purge: bool = True,
                   path: Optional[Path] = None,
                   generation: int = 0) -> SSTable:
    """Merge the runs it is given into one: per ``(row, column)``, only
    the newest cell. Which runs to merge is the node's policy
    (:mod:`repro.kvstore.node`), not decided here.

    Args:
        tables: Runs to merge (any order).
        now: Current time, for TTL expiry decisions.
        purge: The merge includes the store's oldest run, so nothing
            older can be uncovered: drop tombstones and cells whose TTL
            has expired by ``now`` (the store-side garbage collection of
            Section 4.2). A partial merge must keep both — either is
            what hides an older version of its key in an older run.
        path: Optional file for the merged run.
        generation: The merged run's generation (auto-assigned when 0).

    Returns:
        The merged SSTable.
    """
    newest: Dict[CellKey, Cell] = {}
    pairs: Dict[CellKey, Tuple[int, int]] = {}
    for table in tables:
        flat = iter(table._hashes)
        for cell, pair in zip(table._cells, zip(flat, flat)):
            key = (cell.row, cell.column)
            existing = newest.get(key)
            if existing is None:
                pairs[key] = pair
                newest[key] = cell
            elif cell.supersedes(existing):
                newest[key] = cell
    survivors = []
    hashes = array("Q")
    for key in sorted(newest):
        cell = newest[key]
        if purge and (cell.is_tombstone or cell.expired(now)):
            continue  # TTL and tombstone GC happen here, at compaction.
        survivors.append(cell)
        hashes.extend(pairs[key])
    return SSTable(survivors, generation=generation, path=path,
                   hashes=hashes)
