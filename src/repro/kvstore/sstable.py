"""SSTables: immutable sorted runs flushed from the memtable.

Each flush writes one SSTable; point reads consult SSTables newest-first,
skipping files whose bloom filter rules the row out. This is the mechanism
behind the paper's observation that "the more times a row is flushed to
disk by the store since its last file compaction, the more files will have
to be checked for the row when it needs to be retrieved" (Section 4.2) —
compaction (see :mod:`repro.kvstore.node`) merges runs back down.

Every run keeps one *index* in memory: per cell, in key order, the row and
column (searched by bisection), the ``write_ts``, TTL and flags of its
record header, its exact :meth:`Cell.size_bytes` and its bloom hash pair,
with the bloom filter built from those. The cell *bodies* stay where the
run lives. An in-memory run (simulator mode) keeps its :class:`Cell` list.
A durable run's body *i* is record *i* of its file, read with one
``pread`` when a probe finds its key: a durable node's memory grows with
its keys, not its data — main memory buffers writes, flushed rows live in
files (Section 4.2).

A run file is written once and never edited::

    file header  <8sQI  magic "MUPSST01", generation, cell count
    cells        one binary record each, in (row, column) order — the
                 record the commit log writes (:mod:`repro.kvstore.commitlog`)

The file is streamed once, through a large buffer, to ``<name>.tmp``,
which is then renamed over ``<name>``: a reader finds a complete run or
none, and a leftover ``*.tmp`` is a flush that never finished. As with
the commit log there is no ``fsync``. The generation in the header is what
orders runs after a restart. A flush writes the records the commit log
already encoded; a merge copies its survivors' records from its inputs.
"""

from __future__ import annotations

import itertools
import operator
import os
import struct
from array import array
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import StoreError
from repro.kvstore.bloom import BloomFilter, hash_pair
from repro.kvstore.cells import Cell, CellKey, newest_by
from repro.kvstore.commitlog import (HAS_TTL, TOMBSTONE, decode_records,
                                     encode_record, scan_records)

_sstable_ids = itertools.count(1)

_FILE_HEADER = struct.Struct("<8sQI")
_MAGIC = b"MUPSST01"
#: A run file is written through a buffer of this size, and a merge reads
#: each input forward through one: a run of any length costs this much
#: memory to write or to copy from, in a few large calls.
_BUFFER = 1 << 18


def key_hashes(row: str, column: str) -> Tuple[int, int]:
    """The bloom hash pair of a cell key, the same for every run."""
    return hash_pair(f"{row}\x00{column}")


class _Index:
    """What a run keeps in memory, one entry per cell in key order (the
    module docstring). ``offsets`` is a durable run's: where each record
    starts in the file, then where the file ends."""

    __slots__ = ("rows", "columns", "stamps", "ttls", "flags", "sizes",
                 "hashes", "offsets")

    def __init__(self) -> None:
        self.rows: List[str] = []
        self.columns: List[str] = []
        self.stamps = array("d")
        self.ttls = array("d")  # 0.0 where the flags say there is none
        self.flags = array("B")  # the record's: TOMBSTONE | HAS_TTL
        self.sizes = array("I")
        self.hashes = array("Q")  # h1, h2 per entry
        self.offsets: Optional[array] = None

    def extend(self, cells: List[Cell]) -> None:
        """Append ``cells``, hashing their keys."""
        rows = [cell.row for cell in cells]
        columns = [cell.column for cell in cells]
        self.rows += rows
        self.columns += columns
        self.stamps.extend([cell.write_ts for cell in cells])
        self.ttls.extend([0.0 if cell.ttl is None else cell.ttl
                          for cell in cells])
        self.flags.extend([(cell.value is None) * TOMBSTONE
                           | (cell.ttl is not None) * HAS_TTL
                           for cell in cells])
        self.sizes.extend([cell.size_bytes() for cell in cells])
        hashes = self.hashes
        for row, column in zip(rows, columns):
            hashes.extend(key_hashes(row, column))

    @classmethod
    def gather(cls, picks: List[Tuple["_Index", int]]) -> "_Index":
        """The entries ``picks`` name, ``(index, position)`` each."""
        out = cls()
        out.rows = [index.rows[at] for index, at in picks]
        out.columns = [index.columns[at] for index, at in picks]
        out.stamps = array("d", [index.stamps[at] for index, at in picks])
        out.ttls = array("d", [index.ttls[at] for index, at in picks])
        out.flags = array("B", [index.flags[at] for index, at in picks])
        out.sizes = array("I", [index.sizes[at] for index, at in picks])
        out.hashes = array("Q", [index.hashes[2 * at + half]
                                 for index, at in picks for half in (0, 1)])
        return out


class _RunFile:
    """A durable run's read handle: opened by the first read (again after
    :meth:`close`), released by ``close`` — or, for a run dropped
    unclosed, when the run is."""

    __slots__ = ("path", "fd")

    def __init__(self, path: Path) -> None:
        self.path = path
        self.fd: Optional[int] = None

    def pread(self, length: int, offset: int) -> bytes:
        """``length`` bytes from ``offset``; fewer only at the file's end."""
        try:
            if self.fd is None:
                self.fd = os.open(self.path, os.O_RDONLY)
            return os.pread(self.fd, length, offset)
        except OSError as exc:
            raise StoreError(f"sstable read failed: {exc}") from exc

    def close(self) -> None:
        fd, self.fd = self.fd, None
        if fd is not None:
            os.close(fd)

    __del__ = close


class SSTable:
    """One immutable sorted run of cells.

    Args:
        cells: Cells in any order; stored sorted by ``(row, column)``.
            For duplicate keys the newest ``write_ts`` wins. Input that is
            already sorted and free of duplicates (a memtable, a merge
            result) is recognised and taken as it is.
        generation: Monotonic ID; higher = newer. Auto-assigned when 0.
        path: Optional file to persist the run to; the run then keeps
            only its index in memory and reads bodies from the file.
        records: The binary record of each of ``cells``, which must then
            be sorted and free of duplicates, to write instead of encoding
            them: what the commit log wrote.
        index: A merge's or a load's index, otherwise built here from
            ``cells``. ``cells`` are then its entries' bodies (in memory)
            and ``records`` the file's (a merge); neither is given when
            ``index.offsets`` says ``path`` holds the run already (a load).
    """

    def __init__(self, cells: Iterable[Cell] = (), generation: int = 0,
                 path: Optional[Path] = None,
                 records: Optional[Iterable[bytes]] = None,
                 index: Optional[_Index] = None) -> None:
        cells = list(cells)
        if index is None:
            cells, index = _index_cells(cells, records is not None)
        self._index = index
        self.generation = generation or next(_sstable_ids)
        self._bloom = BloomFilter(expected_items=max(1, len(index.rows)))
        add_hashed = self._bloom.add_hashed
        flat = iter(index.hashes)
        for h1, h2 in zip(flat, flat):
            add_hashed(h1, h2)
        self._size = sum(index.sizes)
        self._path = Path(path) if path is not None else None
        #: The bodies, in memory; ``None`` for a durable run.
        self._cells: Optional[List[Cell]] = cells
        self._file: Optional[_RunFile] = None
        if self._path is not None:
            if index.offsets is None:
                self._persist(map(encode_record, cells) if records is None
                              else records)
            self._cells = None
            self._file = _RunFile(self._path)

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
        columns = self._index.columns
        first, end = self._row_span(row)
        at = bisect_left(columns, column, first, end)
        if at < end and columns[at] == column:
            return self._body(at)
        return None

    def cells(self) -> List[Cell]:
        """All cells in ``(row, column)`` order."""
        if self._cells is not None:
            return list(self._cells)
        read = self._reader()
        return [self._decode(read(at), at) for at in range(len(self))]

    def scan_row(self, row: str) -> List[Cell]:
        """All cells of one row (bulk-read path, Section 5)."""
        return [self._body(at) for at in range(*self._row_span(row))]

    def __len__(self) -> int:
        return len(self._index.rows)

    @property
    def size_bytes(self) -> int:
        """Approximate on-disk size of the run."""
        return self._size

    @property
    def path(self) -> Optional[Path]:
        """The backing file, if persisted."""
        return self._path

    def _row_span(self, row: str) -> Tuple[int, int]:
        """The positions ``[first, end)`` of ``row``'s cells."""
        rows = self._index.rows
        first = bisect_left(rows, row)
        return first, bisect_right(rows, row, first)

    def _body(self, at: int) -> Cell:
        """The cell at position ``at``: from the list, or its record."""
        if self._cells is not None:
            return self._cells[at]
        offsets = self._index.offsets
        start = offsets[at]
        return self._decode(self._file.pread(offsets[at + 1] - start, start),
                            at)

    def _decode(self, record: bytes, at: int) -> Cell:
        cells, _ = decode_records(record)
        if not cells:  # cut short, or failed its CRC
            raise StoreError(f"sstable read failed: record {at} of "
                             f"{self._path} is damaged")
        return cells[0]

    def _reader(self) -> Callable[[int], bytes]:
        """The record at each position, asked for in ascending order: a
        durable run reads its file forward through one bounded buffer, an
        in-memory run encodes its cell."""
        if self._cells is not None:
            cells = self._cells
            return lambda at: encode_record(cells[at])
        offsets, file = self._index.offsets, self._file
        buffer, base = b"", 0  # the file's bytes from offset ``base`` on

        def record(at: int) -> bytes:
            nonlocal buffer, base
            start, end = offsets[at], offsets[at + 1]
            if end > base + len(buffer):
                buffer = file.pread(max(_BUFFER, end - start), start)
                base = start
                if len(buffer) < end - start:
                    raise StoreError(f"sstable read failed: {self._path} "
                                     f"ends inside record {at}")
            return buffer[start - base:end - base]

        return record

    # -- persistence ----------------------------------------------------------
    def _persist(self, records: Iterable[bytes]) -> None:
        assert self._path is not None
        temp = self._path.with_name(self._path.name + ".tmp")
        end = _FILE_HEADER.size
        offsets = array("Q", [end])
        try:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            with temp.open("wb", buffering=_BUFFER) as handle:
                handle.write(_FILE_HEADER.pack(_MAGIC, self.generation,
                                               len(self)))
                for record in records:
                    handle.write(record)
                    end += len(record)
                    offsets.append(end)
            if len(offsets) != len(self) + 1:
                raise ValueError("records must be one per cell")
            os.replace(temp, self._path)
        except OSError as exc:
            raise StoreError(f"sstable persist failed: {exc}") from exc
        self._index.offsets = offsets

    @classmethod
    def load(cls, path: Path) -> "SSTable":
        """Reconstruct an SSTable, generation included, from its file.
        Every record is CRC-checked; only the index is kept. Loading opens
        no handle: a run opens its file at its first read."""
        index = _Index()
        offsets = array("Q", [_FILE_HEADER.size])

        def add(cells: List[Cell], ends: List[int]) -> None:
            index.extend(cells)
            offsets.extend(ends)

        try:
            with Path(path).open("rb") as handle:
                header = handle.read(_FILE_HEADER.size)
                if (len(header) < _FILE_HEADER.size
                        or not header.startswith(_MAGIC)):
                    raise StoreError(
                        f"sstable load failed: {path} is not a run file")
                _, generation, count = _FILE_HEADER.unpack(header)
                leftover = scan_records(handle, add)
        except OSError as exc:
            raise StoreError(f"sstable load failed: {exc}") from exc
        if leftover or len(index.rows) != count:
            raise StoreError(
                f"sstable load failed: {path} is corrupt after "
                f"{len(index.rows)} of {count} cells")
        index.offsets = offsets
        return cls(generation=generation, path=path, index=index)

    def close(self) -> None:
        """Release the read handle (durable runs); a later read opens the
        file again."""
        if self._file is not None:
            self._file.close()

    def delete_file(self) -> None:
        """Remove the backing file after compaction supersedes this run."""
        if self._path is not None:
            self.close()
            try:
                self._path.unlink(missing_ok=True)
            except OSError as exc:
                raise StoreError(f"sstable delete failed: {exc}") from exc


def _index_cells(cells: List[Cell],
                 has_records: bool) -> Tuple[List[Cell], _Index]:
    """``cells`` sorted, the newest per key, and their index."""
    keys = [(cell.row, cell.column) for cell in cells]
    # Strictly ascending keys: sorted, and no key twice.
    if not all(map(operator.lt, keys, itertools.islice(keys, 1, None))):
        if has_records:
            raise ValueError("records must be of cells that are sorted and "
                             "unique")
        newest = newest_by(cells, "key")
        cells = [newest[key] for key in sorted(newest)]
    index = _Index()
    index.extend(cells)
    return cells, index


def merge_sstables(tables: List[SSTable], now: float,
                   purge: bool = True,
                   path: Optional[Path] = None,
                   generation: int = 0) -> SSTable:
    """Merge the runs it is given into one: per ``(row, column)``, only
    the newest cell. Which runs to merge is the node's policy
    (:mod:`repro.kvstore.node`), not decided here.

    One last-write-wins and purge pass over the inputs' indexes picks the
    survivors, for either kind of run. A durable output then copies their
    records, reading each input forward once; an in-memory one takes
    their cells.

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
    newest: Dict[CellKey, Tuple[SSTable, int]] = {}
    for table in tables:
        index = table._index
        stamps = index.stamps
        for at, key in enumerate(zip(index.rows, index.columns)):
            held = newest.get(key)
            if held is None or stamps[at] >= held[0]._index.stamps[held[1]]:
                newest[key] = (table, at)
    picks = []
    for key in sorted(newest):
        table, at = pick = newest[key]
        index = table._index
        flags = index.flags[at]
        if purge and (flags & TOMBSTONE or flags & HAS_TTL
                      and now - index.stamps[at] > index.ttls[at]):
            continue  # TTL and tombstone GC happen here, at compaction.
        picks.append(pick)
    merged = _Index.gather([(table._index, at) for table, at in picks])
    if path is None:
        return SSTable([table._body(at) for table, at in picks],
                       generation=generation, index=merged)
    readers = {table: table._reader() for table in tables}
    return SSTable(generation=generation, path=path, index=merged,
                   records=(readers[table](at) for table, at in picks))
