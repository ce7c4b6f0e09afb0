"""The memtable: the write-buffering heart of the store (Section 4.2).

"Because applications often update popular slates repeatedly, we minimize
disk I/O for writing at the key-value store if we devote the store's main
memory to buffering writes. Overwrites of the same row in the key-value
store are relatively inexpensive if the row is still in memory at the time
of the write, so it is advantageous for us to delay flushing the writes
(i.e., the memory table) to disk as long as possible."

The memtable absorbs overwrites: a hot slate written 1,000 times between
flushes costs one flushed cell, not 1,000. :class:`Memtable` tracks how many
writes it absorbed so benches (E8/E9) can quantify exactly that saving.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.kvstore.cells import Cell, CellKey


class Memtable:
    """An in-memory, mutable buffer of the newest cell per ``(row, column)``.

    Not thread-safe by itself; :class:`repro.kvstore.node.StorageNode`
    serializes access.
    """

    def __init__(self) -> None:
        self._cells: Dict[CellKey, Cell] = {}
        #: A durable node's: each buffered cell's commit-log record, which
        #: the flush writes as it is.
        self._records: Dict[CellKey, bytes] = {}
        self._bytes = 0
        #: Writes that replaced an existing in-memory cell — the disk
        #: writes the memtable saved (the paper's overwrite argument).
        self.absorbed_overwrites = 0
        #: Total writes accepted since the last flush.
        self.writes = 0

    def put(self, cell: Cell,
            record: Optional[bytes] = None) -> None:  # hot-path
        """Insert or overwrite the cell for ``(cell.row, cell.column)``;
        a durable node hands over its ``record`` too."""
        # inlines: repro.kvstore.cells:Cell.key
        # inlines: repro.kvstore.cells:Cell.size_bytes
        row, column, value = cell.row, cell.column, cell.value
        key = (row, column)
        previous = self._cells.get(key)
        if previous is not None:
            self._bytes -= (24 + len(row) + len(column)
                            + (len(previous.value)
                               if previous.value is not None else 0))
            self.absorbed_overwrites += 1
        self._cells[key] = cell
        if record is not None:
            self._records[key] = record
        self._bytes += (24 + len(row) + len(column)
                        + (len(value) if value is not None else 0))
        self.writes += 1

    def get(self, row: str, column: str) -> Optional[Cell]:
        """The newest buffered cell, tombstones included; None if absent."""
        return self._cells.get((row, column))

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, key: CellKey) -> bool:
        return key in self._cells

    @property
    def size_bytes(self) -> int:
        """Approximate memory footprint of the buffered cells."""
        return self._bytes

    def sorted_for_flush(self) -> Tuple[List[Cell], Optional[List[bytes]]]:
        """All cells in ``(row, column)`` order, ready to flush, and a
        durable node's records in the same order (``None`` when
        :meth:`put` was handed none). The keys are sorted once for
        both."""
        keys = sorted(self._cells)
        cells = self._cells
        records = self._records
        return ([cells[key] for key in keys],
                [records[key] for key in keys] if records else None)

    def clear(self) -> None:
        """Empty the memtable after a flush (counters persist)."""
        self._cells.clear()
        self._records.clear()
        self._bytes = 0
