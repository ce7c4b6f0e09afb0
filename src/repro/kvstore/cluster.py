"""The replicated key-value store: a cluster of LSM nodes (Section 4.2).

"A Cassandra cluster consists of a set of machines, each running the
Cassandra program, all configured to recognize one another as parts of the
same cluster." Rows are partitioned around a consistent hash ring;
``replication_factor`` consecutive distinct nodes hold each row; reads and
writes succeed once :class:`ConsistencyLevel` replicas acknowledge —
ONE / QUORUM / ALL, exactly the three options the paper exposes to Muppet
applications.

Divergent replica versions reconcile by last-write-wins on the cell's write
timestamp; reads at QUORUM/ALL perform read repair, writing the winning
version back to stale replicas. Writes that miss a down replica leave a
*hint* with the coordinator (hinted handoff, as Cassandra does); the hints
are delivered when the replica returns via :meth:`ReplicatedKVStore.mark_up`.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Tuple

from repro.cluster.hashring import HashRing
from repro.errors import ConfigurationError, QuorumError, StoreError
from repro.kvstore.cells import Cell
from repro.kvstore.api import (BatchWriteResult, ConsistencyLevel,
                               ReadResult, WriteResult)
from repro.kvstore.device import StorageDevice, profile_for
from repro.kvstore.node import StorageNode

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.obs import Tracer


class ReplicatedKVStore:
    """A Cassandra-like replicated store over :class:`StorageNode` shards.

    Args:
        node_names: Names of the member nodes (usually machine names).
        replication_factor: Copies kept per row (default 3, Cassandra's
            conventional setting).
        clock: Time source shared with the engines; drives write
            timestamps and TTL expiry.
        device_kind: ``"ssd"`` or ``"hdd"`` for every node (per-node
            overrides via ``device_overrides``).
        data_dir: When given, each node persists under a subdirectory.
        memtable_flush_bytes / compaction_threshold: Passed to each node.
        tracer: Optional :class:`repro.obs.Tracer`; when set the store
            emits one ``kv_write`` span per replicated cell write.
            Strictly passive — only consulted behind ``is not None``.
    """

    def __init__(
        self,
        node_names: List[str],
        replication_factor: int = 3,
        clock: Callable[[], float] = lambda: 0.0,
        device_kind: str = "ssd",
        data_dir: Optional[Path] = None,
        memtable_flush_bytes: int = 4 * 1024 * 1024,
        compaction_threshold: int = 8,
        device_overrides: Optional[Dict[str, str]] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        if not node_names:
            raise ConfigurationError("kv-store needs at least one node")
        if replication_factor < 1:
            raise ConfigurationError("replication_factor must be >= 1")
        self.replication_factor = min(replication_factor, len(node_names))
        self.clock = clock
        self.tracer = tracer
        self._ring: HashRing[str] = HashRing(node_names)
        overrides = device_overrides or {}
        #: Hinted handoff buffers: writes a down replica missed, keyed by
        #: the absent node's name, delivered on :meth:`mark_up`. Each
        #: buffer is a bounded deque so a long outage costs O(1) per
        #: overflow (oldest hint evicted and counted), not O(n).
        self._hints: Dict[str, Deque[Cell]] = {}
        self.hints_stored = 0
        self.hints_delivered = 0
        self.hints_evicted = 0
        self.max_hints_per_node = 100_000
        self.nodes: Dict[str, StorageNode] = {}
        for name in node_names:
            kind = overrides.get(name, device_kind)
            node_dir = (Path(data_dir) / name) if data_dir is not None else None
            self.nodes[name] = StorageNode(
                name=name,
                device=StorageDevice(profile_for(kind)),
                clock=clock,
                memtable_flush_bytes=memtable_flush_bytes,
                compaction_threshold=compaction_threshold,
                data_dir=node_dir,
            )

    @classmethod
    def reopen(cls, node_names: List[str], data_dir: Path,
               **kwargs) -> "ReplicatedKVStore":
        """Cold-restart a persistent cluster from its data directory.

        Each node reloads its SSTables and replays its commit log (see
        :meth:`StorageNode.open`) — "persistent slates help resuming,
        restarting, or recovering the application from crashes"
        (Section 4.2), here for the store itself.
        """
        kwargs.pop("data_dir", None)  # the reopen path owns placement
        store = cls(node_names, data_dir=None, **kwargs)
        clock = kwargs.get("clock", store.clock)
        flush_bytes = kwargs.get("memtable_flush_bytes", 4 * 1024 * 1024)
        compaction = kwargs.get("compaction_threshold", 8)
        device_kind = kwargs.get("device_kind", "ssd")
        overrides = kwargs.get("device_overrides") or {}
        for name in node_names:
            node_dir = Path(data_dir) / name
            node_dir.mkdir(parents=True, exist_ok=True)
            kind = overrides.get(name, device_kind)
            store.nodes[name] = StorageNode.open(
                name, node_dir,
                device=StorageDevice(profile_for(kind)),
                clock=clock,
                memtable_flush_bytes=flush_bytes,
                compaction_threshold=compaction)
        return store

    # -- membership / failures ------------------------------------------------
    def mark_down(self, name: str) -> None:
        """Take a node out of service (machine failure)."""
        self._require_node(name).is_down = True
        self._ring.exclude(name)

    def mark_up(self, name: str) -> None:
        """Return a node to service; replay its commit log and deliver
        any hinted writes it missed while down."""
        node = self._require_node(name)
        node.recover()
        self._ring.restore(name)
        for hint in self._hints.pop(name, ()):
            try:
                if hint.is_tombstone:
                    node.delete(hint.row, hint.column)
                else:
                    node.put(hint.row, hint.column, hint.value,
                             ttl=hint.ttl)
                self.hints_delivered += 1
            except StoreError:
                break

    def replicas_for(self, row: str) -> List[str]:
        """The *natural* replica set for a row, in preference order.

        Down members are included: rows do not migrate during an outage;
        instead writes leave hints (Cassandra semantics) and reads work
        from the surviving members of the same set.
        """
        return self._ring.preference_list(row, self.replication_factor,
                                          include_excluded=True)

    def _store_hint(self, name: str, cell: Cell) -> None:
        hints = self._hints.get(name)
        if hints is None:
            hints = self._hints[name] = deque(
                maxlen=self.max_hints_per_node)
        if hints.maxlen is not None and len(hints) >= hints.maxlen:
            self.hints_evicted += 1  # deque discards the oldest on append
        hints.append(cell)
        self.hints_stored += 1

    def pending_hints(self, name: Optional[str] = None) -> int:
        """Hints buffered for one down node (or all nodes).

        Drains to zero when every hinted-at node has been
        :meth:`mark_up`'d — the recovery-path invariant chaos tests
        assert on.
        """
        if name is not None:
            return len(self._hints.get(name, ()))
        return sum(len(hints) for hints in self._hints.values())

    def _require_node(self, name: str) -> StorageNode:
        try:
            return self.nodes[name]
        except KeyError:
            raise ConfigurationError(f"unknown kv node {name!r}") from None

    # -- operations -----------------------------------------------------------
    def write(
        self,
        row: str,
        column: str,
        value: bytes,
        ttl: Optional[float] = None,
        consistency: ConsistencyLevel = ConsistencyLevel.ONE,
    ) -> WriteResult:
        """Replicated write; raises :class:`QuorumError` on too few acks."""
        replicas = self.replicas_for(row)
        required = consistency.required_acks(self.replication_factor)
        acks = 0
        worst_cost = 0.0
        for name in replicas:
            node = self.nodes[name]
            if node.is_down:
                self._store_hint(name, Cell(row, column, value,
                                            self.clock(), ttl))
                continue
            try:
                cost = node.put(row, column, value, ttl=ttl)
            except StoreError:
                continue
            acks += 1
            worst_cost = max(worst_cost, cost)
        if acks < required:
            raise QuorumError(
                f"write {row!r}/{column!r}: {acks} acks < required "
                f"{required} ({consistency.value})"
            )
        if self.tracer is not None:
            self.tracer.emit(self.clock(), "kv_write", row=row,
                             column=column, replicas=list(replicas),
                             acks=acks)
        return WriteResult(acks=acks, replicas=replicas, cost_s=worst_cost)

    def write_batch(
        self,
        writes: List[Tuple[str, str, bytes, Optional[float]]],
        consistency: ConsistencyLevel = ConsistencyLevel.ONE,
    ) -> BatchWriteResult:
        """Replicated multi-cell write: ``[(row, column, value, ttl)...]``.

        Cells are grouped by their natural replica set; each live replica
        of a group receives one coalesced :meth:`StorageNode.put_many`
        call instead of one put per cell. Down replicas get one hint per
        cell, exactly as :meth:`write` would leave. Every group must
        independently reach the consistency level's acknowledgement
        count; the first group that cannot raises :class:`QuorumError`
        (cells of already-written groups stay written — last-write-wins
        makes the caller's per-cell retry idempotent).
        """
        if not writes:
            return BatchWriteResult(writes=0, groups=0, acks_min=0,
                                    cost_s=0.0)
        required = consistency.required_acks(self.replication_factor)
        groups: Dict[Tuple[str, ...], List[Tuple[str, str, bytes,
                                                 Optional[float]]]] = {}
        for write in writes:
            replica_set = tuple(self.replicas_for(write[0]))
            groups.setdefault(replica_set, []).append(write)
        total_cost = 0.0
        acks_min: Optional[int] = None
        for replica_set, cells in groups.items():
            acks = 0
            worst_cost = 0.0
            for name in replica_set:
                node = self.nodes[name]
                if node.is_down:
                    now = self.clock()
                    for row, column, value, ttl in cells:
                        self._store_hint(name, Cell(row, column, value,
                                                    now, ttl))
                    continue
                try:
                    cost = node.put_many(cells)
                except StoreError:
                    continue
                acks += 1
                worst_cost = max(worst_cost, cost)
            if acks < required:
                raise QuorumError(
                    f"batch write of {len(cells)} cells to "
                    f"{list(replica_set)}: {acks} acks < required "
                    f"{required} ({consistency.value})"
                )
            total_cost += worst_cost
            acks_min = acks if acks_min is None else min(acks_min, acks)
            if self.tracer is not None:
                now = self.clock()
                for row, column, _value, _ttl in cells:
                    self.tracer.emit(now, "kv_write", row=row,
                                     column=column,
                                     replicas=list(replica_set), acks=acks)
        return BatchWriteResult(writes=len(writes), groups=len(groups),
                                acks_min=acks_min or 0, cost_s=total_cost)

    def read(
        self,
        row: str,
        column: str,
        consistency: ConsistencyLevel = ConsistencyLevel.ONE,
    ) -> ReadResult:
        """Replicated read with last-write-wins and read repair."""
        replicas = self.replicas_for(row)
        required = consistency.required_acks(self.replication_factor)
        asked: List[str] = []
        answers: List[tuple] = []  # (name, value, write_ts, cost)
        worst_cost = 0.0
        for name in replicas:
            node = self.nodes[name]
            if node.is_down:
                continue
            cell = node._memtable.get(row, column)
            value, cost = node.get(row, column)
            write_ts = cell.write_ts if cell is not None else 0.0
            if value is not None and cell is None:
                # Value came from an SSTable; approximate its version with
                # the newest run's knowledge by re-deriving from tables.
                write_ts = self._sstable_write_ts(node, row, column)
            asked.append(name)
            answers.append((name, value, write_ts, cost))
            worst_cost = max(worst_cost, cost)
            if len(asked) >= required:
                break
        if len(asked) < required:
            raise QuorumError(
                f"read {row!r}/{column!r}: {len(asked)} replies < required "
                f"{required} ({consistency.value})"
            )
        winner_value: Optional[bytes] = None
        winner_ts = 0.0
        for _, value, write_ts, _ in answers:
            if value is not None and write_ts >= winner_ts:
                winner_value, winner_ts = value, write_ts
        if winner_value is not None and len(answers) > 1:
            self._read_repair(row, column, winner_value, winner_ts, answers)
        return ReadResult(value=winner_value, write_ts=winner_ts,
                          replicas_asked=asked, cost_s=worst_cost)

    @staticmethod
    def _sstable_write_ts(node: StorageNode, row: str, column: str) -> float:
        for table in reversed(node._sstables):
            cell = table.get(row, column)
            if cell is not None:
                return cell.write_ts
        return 0.0

    def _read_repair(self, row: str, column: str, value: bytes,
                     write_ts: float, answers: List[tuple]) -> None:
        """Push the winning version to stale replicas (global repair).

        Both the replicas that answered with older data and any live
        replicas the consistency level skipped are checked and healed —
        Cassandra's GLOBAL read-repair decision, which is what lets a
        node that missed writes (and whose hints were lost) converge.
        """
        answered = {name: replica_value
                    for name, replica_value, _, __ in answers}
        for name in self.replicas_for(row):
            node = self.nodes[name]
            if node.is_down:
                continue
            if name in answered:
                current = answered[name]
            else:
                try:
                    current, _ = node.get(row, column)
                except StoreError:
                    continue
            if current == value:
                continue
            try:
                node.put(row, column, value)
            except StoreError:
                continue

    def delete(self, row: str, column: str,
               consistency: ConsistencyLevel = ConsistencyLevel.ONE) -> int:
        """Replicated tombstone write; returns acknowledgement count."""
        replicas = self.replicas_for(row)
        required = consistency.required_acks(self.replication_factor)
        acks = 0
        for name in replicas:
            node = self.nodes[name]
            if node.is_down:
                self._store_hint(name, Cell(row, column, None,
                                            self.clock()))
                continue
            try:
                node.delete(row, column)
                acks += 1
            except StoreError:
                continue
        if acks < required:
            raise QuorumError(
                f"delete {row!r}/{column!r}: {acks} acks < {required}"
            )
        return acks

    # -- maintenance / introspection ----------------------------------------------
    def flush_all(self) -> float:
        """Flush every node's memtable; returns total background cost."""
        return sum(node.flush() for _, node in sorted(self.nodes.items())
                   if not node.is_down)

    def column_cells(self, column: str) -> Dict[str, "Cell"]:
        """Newest live cell per row for one column across live nodes.

        The offline complement of :meth:`read`: replicas reconcile by
        last-write-wins but nothing is repaired, charged, or counted.
        Used by post-run inspection (``SimRuntime.slates_of`` with
        ``read_through=True``) to see slates that were flushed and then
        dropped from every cache — e.g. by a full-rehydration cutover
        whose keys saw no later traffic.
        """
        newest: Dict[str, Cell] = {}
        for _, node in sorted(self.nodes.items()):
            if node.is_down:
                continue
            for row, cell in node.column_cells(column).items():
                existing = newest.get(row)
                if existing is None or cell.supersedes(existing):
                    newest[row] = cell
        return newest

    def total_cells(self) -> int:
        """Cells across all nodes (replicas counted separately)."""
        return sum(node.total_cells() for node in self.nodes.values())

    def stored_bytes(self) -> int:
        """Bytes across all nodes (replicas counted separately)."""
        return sum(node.stored_bytes() for node in self.nodes.values())

    def stats_by_node(self) -> Dict[str, Dict[str, int]]:
        """Per-node operation counters."""
        return {name: node.stats.as_dict()
                for name, node in self.nodes.items()}
