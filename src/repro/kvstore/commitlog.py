"""Commit log: sequential durability for buffered writes.

The memtable delays flushing "as long as possible" (Section 4.2); what makes
that safe in Cassandra is the commit log — every mutation is appended
sequentially before being acknowledged, so a crashed node replays the log to
rebuild its memtable. We implement both an in-memory log (for the simulator
and fast tests) and an on-disk log (for real-crash tests).

**Record format.** The log and the SSTable files
(:mod:`repro.kvstore.sstable`) share one binary cell record, defined here::

    header   <IIIBdd  row_len, column_len, value_len, flags, write_ts, ttl
    body     row (UTF-8) | column (UTF-8) | value (raw bytes)
    trailer  <I       CRC32 of header + body

``flags`` bit 0 marks a tombstone (``value_len`` 0, value ``None``), bit 1
says the TTL field is meaningful (otherwise the cell has none). Timestamps
and TTLs are IEEE doubles, so an integer comes back as the equal float. A
log file is nothing but records back to back: replay stops at the first
record that is cut short or fails its CRC, which is how a write torn by a
crash is told from an acknowledged one.

**What "durable" means here.** The log keeps one file handle open;
``append`` encodes into it and the node calls :meth:`CommitLog.flush` once
per ``apply`` (one cell or a batch) before acknowledging, which hands
the bytes to the operating system. There is no ``fsync``: acknowledged
writes survive the death of the process, not of the machine.

**Charged size.** What ``append`` returns — and the node bills the device
for — is not the binary record's length but the length of the JSON line
this log used to write (:func:`charged_size`), computed arithmetically.
The simulated cost model, and with it every committed campaign artifact,
is calibrated in those bytes.
"""

from __future__ import annotations

import math
import struct
import zlib
from json.encoder import encode_basestring_ascii
from pathlib import Path
from sys import intern
from typing import (BinaryIO, Callable, Iterator, List, Optional, Tuple,
                    Union)

from repro.errors import StoreError
from repro.kvstore.cells import Cell

_HEADER = struct.Struct("<IIIBdd")
_CRC = struct.Struct("<I")
#: The bits of a record's ``flags``.
TOMBSTONE = 1
HAS_TTL = 2
_READ_CHUNK = 1 << 20


def encode_record(cell: Cell) -> bytes:
    """The binary record of one cell (module docstring has the layout)."""
    row = cell.row.encode("utf-8", "surrogatepass")
    column = cell.column.encode("utf-8", "surrogatepass")
    value = cell.value
    flags = 0
    if value is None:
        flags = TOMBSTONE
        value = b""
    ttl = cell.ttl
    if ttl is None:
        ttl = 0.0
    else:
        flags |= HAS_TTL
    body = b"".join((
        _HEADER.pack(len(row), len(column), len(value), flags,
                     cell.write_ts, ttl),
        row, column, value))
    return body + _CRC.pack(zlib.crc32(body))


def decode_records(data: bytes, ends: Optional[List[int]] = None,
                   ) -> Tuple[List[Cell], int]:
    """Decode back-to-back records from the start of ``data``.

    Stops at the first record that is incomplete or fails its CRC.
    ``ends``, when given, receives the offset just past each record.

    Returns:
        ``(cells, end)`` — the cells of every whole record and the offset
        just past the last of them (``len(data)`` when nothing is torn).
        Column names are interned: a reopened store holds one ``str`` per
        column, not one per cell.
    """
    cells: List[Cell] = []
    offset = 0
    header_size = _HEADER.size
    total = len(data)
    while offset + header_size <= total:
        row_len, column_len, value_len, flags, write_ts, ttl = \
            _HEADER.unpack_from(data, offset)
        row_at = offset + header_size
        column_at = row_at + row_len
        value_at = column_at + column_len
        crc_at = value_at + value_len
        if crc_at + _CRC.size > total:
            break
        if _CRC.unpack_from(data, crc_at)[0] != zlib.crc32(
                data[offset:crc_at]):
            break
        cells.append(Cell(
            data[row_at:column_at].decode("utf-8", "surrogatepass"),
            intern(data[column_at:value_at].decode("utf-8", "surrogatepass")),
            None if flags & TOMBSTONE else data[value_at:crc_at],
            write_ts,
            ttl if flags & HAS_TTL else None))
        offset = crc_at + _CRC.size
        if ends is not None:
            ends.append(offset)
    return cells, offset


def scan_records(handle: BinaryIO,
                 add: Callable[[List[Cell], List[int]], None]) -> int:
    """Decode the records of an open file from its current position, a
    chunk at a time (a file is never held in memory whole), handing each
    chunk's cells to ``add`` with the file offset just past each.

    Returns:
        The trailing bytes that are no whole record: 0 for an intact file.
    """
    base = handle.tell()
    pending = b""
    while True:
        chunk = handle.read(_READ_CHUNK)
        if not chunk:
            return len(pending)
        pending += chunk
        ends: List[int] = []
        cells, end = decode_records(pending, ends)
        add(cells, [base + at for at in ends])
        pending = pending[end:]
        base += end


def read_records(handle: BinaryIO) -> Tuple[List[Cell], int]:
    """Every whole record of an open file from its current position
    (:func:`scan_records`), and the count of torn bytes after them."""
    cells: List[Cell] = []
    leftover = scan_records(handle, lambda chunk, _ends: cells.extend(chunk))
    return cells, leftover


# -- the size the device is charged ---------------------------------------------
# ``{"row":,"column":,"value":,"write_ts":,"ttl":}`` plus the newline.
_JSON_FRAME = 47
#: For each byte of a value, a byte with as many bits set as JSON spends
#: on it beyond one character: none for printable ASCII, one for the
#: two-character escapes, five for the rest (``\\u00xx``). The bits set in
#: a translated value are then the characters its escaping adds — a count
#: with no per-byte branch, which matters on compressed (random) values.
_ESCAPE_BITS = bytes(
    0 if 0x20 <= byte < 0x7f and byte not in b'"\\'
    else 1 if byte in b'"\\\n\r\t\b\f' else 0b11111
    for byte in range(256))


def _json_number_len(number: Union[int, float, None]) -> int:
    if number is None:
        return 4  # null
    if isinstance(number, float):
        length = len(float.__repr__(number))
        # JSON spells inf "Infinity"; "NaN" is as long as "nan".
        return length + 5 if math.isinf(number) else length
    return len(int.__repr__(number))


def charged_size(cell: Cell) -> int:  # hot-path
    """Length of the JSON line (newline included) that ``json.dumps`` with
    compact separators writes for ``cell`` with its value decoded as
    latin-1 — the log's former format, and still the unit the device is
    billed in. Exact for every byte value; nothing is serialised."""
    value = cell.value
    if value is None:
        value_len = 4  # null
    else:
        value_len = 2 + len(value) + int.from_bytes(
            value.translate(_ESCAPE_BITS), "little").bit_count()
    # For a finite float stamp and no TTL:
    # inlines: repro.kvstore.commitlog:_json_number_len
    write_ts, ttl = cell.write_ts, cell.ttl
    return (_JSON_FRAME
            + len(encode_basestring_ascii(cell.row))
            + len(encode_basestring_ascii(cell.column))
            + value_len
            + (len(float.__repr__(write_ts))
               if type(write_ts) is float and write_ts - write_ts == 0.0
               else _json_number_len(write_ts))
            + (4 if ttl is None else _json_number_len(ttl)))


class CommitLog:
    """Append-only mutation log with replay.

    Args:
        path: File path for a durable log; ``None`` keeps the log purely
            in memory (simulator mode — device costs are still charged by
            the node, only persistence is skipped). A new ``CommitLog`` is
            a new segment: a file already at ``path`` is emptied. Use
            :meth:`open` to continue an existing one.
    """

    def __init__(self, path: Optional[Path] = None) -> None:
        self._path = Path(path) if path is not None else None
        self._memory: List[Cell] = []
        self._handle = None
        if self._path is not None:
            self._attach()
            self.truncate()

    @classmethod
    def open(cls, path: Path) -> "CommitLog":
        """Continue the log at ``path`` in place (created when missing).

        Nothing already acknowledged is rewritten: the file is opened for
        append after cutting off a torn last record, if there is one, so a
        crash at any point of a restart loses nothing. :meth:`replay`
        then yields what the file held.
        """
        log = cls()
        log._path = Path(path)
        cells, leftover = log._read()
        log._attach()
        if leftover:
            try:
                log._handle.truncate(log._handle.tell() - leftover)
            except OSError as exc:
                raise StoreError(f"commit log open failed: {exc}") from exc
        return log

    def _read(self) -> Tuple[List[Cell], int]:
        """Every whole record in the file, and the torn bytes after."""
        assert self._path is not None
        try:
            with self._path.open("rb") as handle:
                return read_records(handle)
        except FileNotFoundError:
            return [], 0
        except OSError as exc:
            raise StoreError(f"commit log read failed: {exc}") from exc

    def _attach(self) -> None:
        """Open the handle, in append mode: wherever the file is cut,
        every write lands at its end."""
        assert self._path is not None
        try:
            self._path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = self._path.open("ab")
        except OSError as exc:
            raise StoreError(f"commit log open failed: {exc}") from exc

    def append(self, cell: Cell, _size: Optional[int] = None,
               _record: Optional[bytes] = None) -> int:  # hot-path
        """Append one mutation; returns its charged size in bytes
        (:func:`charged_size`, or ``_size`` when the caller already
        priced the cell). A durable log buffers the record (``_record``
        when the caller already encoded it) in its handle: call
        :meth:`flush` before acknowledging the write."""
        size = charged_size(cell) if _size is None else _size
        if self._handle is not None:
            try:
                self._handle.write(encode_record(cell) if _record is None
                                   else _record)
            except OSError as exc:
                raise StoreError(f"commit log append failed: {exc}") from exc
        else:
            self._memory.append(cell)
        return size

    def flush(self) -> None:
        """Hand every appended record to the operating system."""
        if self._handle is not None:
            try:
                self._handle.flush()
            except OSError as exc:
                raise StoreError(f"commit log flush failed: {exc}") from exc

    def replay(self) -> Iterator[Cell]:
        """Yield every logged mutation in append order (crash recovery)."""
        if self._path is None:
            yield from list(self._memory)
            return
        self.flush()
        yield from self._read()[0]

    def truncate(self) -> None:
        """Discard the log after a successful memtable flush."""
        self._memory.clear()
        if self._handle is not None:
            try:
                self._handle.truncate(0)
            except OSError as exc:
                raise StoreError(f"commit log truncate failed: {exc}") from exc

    def close(self) -> None:
        """Flush and release the file handle; the log accepts no more
        appends. A no-op for an in-memory log."""
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError as exc:
                raise StoreError(f"commit log close failed: {exc}") from exc
