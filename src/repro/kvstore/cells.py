"""Storage cells: the unit of data in the key-value store (Section 4.2).

Muppet stores slate ``S(U, k)`` "as a value at row k and column U" within a
column family; each write can carry a time-to-live after which the store may
garbage-collect the cell. A :class:`Cell` is one version of one
``(row, column)`` entry: a value blob (or tombstone), the write timestamp
used for last-write-wins reconciliation across replicas, and the optional
TTL.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

#: Address of a cell within a column family: ``(row, column)``.
CellKey = Tuple[str, str]


@dataclass(frozen=True, slots=True)
class Cell:
    """One version of a ``(row, column)`` entry.

    Attributes:
        row: Row key — the event key ``k`` for slate storage.
        column: Column name — the updater name ``U`` for slate storage.
        value: The stored blob (compressed slate bytes), or ``None`` for a
            tombstone (an explicit delete marker).
        write_ts: Timestamp of the write; replicas reconcile divergent
            versions by keeping the newest (last-write-wins, as Cassandra
            does).
        ttl: Optional time-to-live in seconds from ``write_ts``; expired
            cells behave as absent and are purged at compaction
            ("Slates that have not been updated (written) for longer than
            the TTL value may be garbage-collected", Section 4.2).
    """

    row: str
    column: str
    value: Optional[bytes]
    write_ts: float
    ttl: Optional[float] = None

    @property
    def key(self) -> CellKey:
        """The cell's ``(row, column)`` address."""
        return (self.row, self.column)

    @property
    def is_tombstone(self) -> bool:
        """True when the cell records a delete."""
        return self.value is None

    def expired(self, now: float) -> bool:
        """True when the TTL has elapsed at time ``now``."""
        if self.ttl is None:
            return False
        return now - self.write_ts > self.ttl

    def live(self, now: float) -> bool:
        """True when the cell holds a readable value at time ``now``."""
        return not self.is_tombstone and not self.expired(now)

    def size_bytes(self) -> int:
        """Approximate on-disk footprint of this cell."""
        payload = len(self.value) if self.value is not None else 0
        return 24 + len(self.row) + len(self.column) + payload

    def supersedes(self, other: "Cell") -> bool:
        """Last-write-wins: newer write timestamp wins; ties keep self."""
        return self.write_ts >= other.write_ts


def newest_by(cells: Iterable[Cell], attr: str) -> Dict[Any, Cell]:
    """Last-write-wins reduce: per value of ``attr`` (``"row"``, ``"column"``
    or ``"key"``), the cell that :meth:`Cell.supersedes` the others (on a
    tie, the later in ``cells``).

    Every place that reconciles versions — runs within a node, replicas
    within a cluster — goes through here, tombstones and expired cells
    included: dropping those first would let an older value win.
    """
    group_of = operator.attrgetter(attr)
    newest: Dict[Any, Cell] = {}
    for cell in cells:
        group = group_of(cell)
        held = newest.get(group)
        if held is None or cell.supersedes(held):
            newest[group] = cell
    return newest
