"""The replicated key-value store: a cluster of LSM nodes (Section 4.2).

"A Cassandra cluster consists of a set of machines, each running the
Cassandra program, all configured to recognize one another as parts of the
same cluster." Rows are partitioned around a consistent hash ring;
``replication_factor`` consecutive distinct nodes hold each row; reads and
writes succeed once :class:`ConsistencyLevel` replicas acknowledge —
ONE / QUORUM / ALL, exactly the three options the paper exposes to Muppet
applications.

A mutation is one :class:`~repro.kvstore.cells.Cell`, stamped once by the
coordinator: every live replica applies it, a down replica's *hint* holds
it (hinted handoff, as Cassandra does; delivered by
:meth:`ReplicatedKVStore.mark_up`) and read repair writes it back, timestamp
and TTL included. Replicas reconcile by last-write-wins on the cell — a
tombstone or an expired cell wins like any other.
"""

from __future__ import annotations

from collections import deque
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List, Optional,
                    Sequence, Tuple)

from repro.cluster.hashring import MEMO_MAX_ENTRIES, HashRing
from repro.errors import ConfigurationError, QuorumError, StoreError
from repro.kvstore.cells import Cell, newest_by
from repro.kvstore.api import ConsistencyLevel, ReadResult, WriteResult
from repro.kvstore.commitlog import charged_size, encode_record
from repro.kvstore.device import StorageDevice, profile_for
from repro.kvstore.node import StorageNode
from repro.kvstore.sstable import key_hashes

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
        data_dir: When given, each node persists under a subdirectory.
        memtable_flush_bytes / compaction_threshold: Passed to each node.
        device_overrides: Node name -> ``"ssd"`` or ``"hdd"``; a node
            not named here gets an SSD.
        tracer: Optional :class:`repro.obs.Tracer`; when set the store
            emits one ``kv_write`` span per replicated cell write.
            Strictly passive — only consulted behind ``is not None``.
    """

    def __init__(
        self,
        node_names: List[str],
        replication_factor: int = 3,
        clock: Callable[[], float] = lambda: 0.0,
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
        #: row -> its natural replica set, valid for one ring generation
        #: (the store's partitioner memo; the ring keeps no copy).
        self._replica_sets: Dict[str, Tuple[str, ...]] = {}
        self._replica_generation = self._ring.generation
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
            kind = overrides.get(name, "ssd")
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
        for name in node_names:
            node_dir = Path(data_dir) / name
            node_dir.mkdir(parents=True, exist_ok=True)
            fresh = store.nodes[name]  # built in memory: holds the settings
            store.nodes[name] = StorageNode.open(
                name, node_dir, device=fresh.device, clock=fresh.clock,
                memtable_flush_bytes=fresh.memtable_flush_bytes,
                compaction_threshold=fresh.compaction_threshold)
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
                node.apply([hint])
                self.hints_delivered += 1
            except StoreError:
                break

    def replicas_for(self, row: str) -> Tuple[str, ...]:  # hot-path
        """The *natural* replica set for a row, in preference order.

        Down members are included: rows do not migrate during an outage;
        instead writes leave hints (Cassandra semantics) and reads work
        from the surviving members of the same set.
        """
        ring = self._ring
        if self._replica_generation != ring.generation:
            self._replica_sets.clear()
            self._replica_generation = ring.generation
        replicas = self._replica_sets.get(row)
        if replicas is None:
            if len(self._replica_sets) >= MEMO_MAX_ENTRIES:
                self._replica_sets.clear()
            replicas = self._replica_sets[row] = tuple(ring.preference_list(
                row, self.replication_factor, include_excluded=True))
        return replicas

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
        return self._replicate([Cell(row, column, value, self.clock(), ttl)],
                               self.replicas_for(row), consistency)

    def write_batch(
        self,
        writes: List[Tuple[str, str, bytes, Optional[float]]],
        consistency: ConsistencyLevel = ConsistencyLevel.ONE,
    ) -> WriteResult:
        """Replicated multi-cell write: ``[(row, column, value, ttl)...]``.

        Cells are stamped together and grouped by natural replica set;
        each group is replicated as one multi-cell :meth:`write`. Every
        group must independently reach the consistency level; the first
        that cannot raises :class:`QuorumError` (cells of already-written
        groups stay written — last-write-wins makes the caller's per-cell
        retry idempotent). The result sums costs and reports fewest acks.
        """
        now = self.clock()
        groups: Dict[Tuple[str, ...], List[Cell]] = {}
        for row, column, value, ttl in writes:
            groups.setdefault(self.replicas_for(row), []).append(
                Cell(row, column, value, now, ttl))
        results = [self._replicate(cells, replica_set, consistency)
                   for replica_set, cells in groups.items()]
        return WriteResult(
            acks=min((result.acks for result in results), default=0),
            replicas=list(dict.fromkeys(
                name for replica_set in groups for name in replica_set)),
            cost_s=sum((result.cost_s for result in results), 0.0))

    def _replicate(self, cells: List[Cell], replicas: Sequence[str],
                   consistency: ConsistencyLevel) -> WriteResult:
        """The one write path: a live replica applies the stamped cells in
        one call, a down one gets the same cells as its hints; each cell is
        priced (:func:`charged_size`) and, for the first durable replica,
        encoded (:func:`encode_record`) once for every replica's log. Too
        few acks for ``consistency`` raise (what was applied or hinted
        stays)."""
        required = consistency.required_acks(self.replication_factor)
        sizes = [charged_size(cell) for cell in cells]
        records: Optional[List[bytes]] = None
        acks = 0
        worst_cost = 0.0
        for name in replicas:
            node = self.nodes[name]
            if node.is_down:
                for cell in cells:
                    self._store_hint(name, cell)
                continue
            if records is None and node._data_dir is not None:
                records = list(map(encode_record, cells))
            try:
                cost = node.apply(cells, _sizes=sizes, _records=records)
            except StoreError:
                continue
            acks += 1
            worst_cost = max(worst_cost, cost)
        if acks < required:
            raise QuorumError(
                f"write of {len(cells)} cell(s), first {cells[0].key}, to "
                f"{list(replicas)}: {acks} acks < required {required} "
                f"({consistency.value})"
            )
        if self.tracer is not None:
            now = self.clock()
            for cell in cells:
                self.tracer.emit(now, "kv_write", row=cell.row,
                                 column=cell.column, replicas=list(replicas),
                                 acks=acks)
        return WriteResult(acks=acks, replicas=list(replicas),
                           cost_s=worst_cost)

    def read(
        self,
        row: str,
        column: str,
        consistency: ConsistencyLevel = ConsistencyLevel.ONE,
    ) -> ReadResult:
        """Replicated read: last-write-wins over cells, then read repair.

        With more than one answer the winning cell is applied, unchanged,
        to every live replica it supersedes, the ones the consistency
        level skipped too (Cassandra's GLOBAL read repair: how a node that
        missed writes and lost its hints converges). A tombstone or
        expired winner still wins and repairs; the read reports no value.
        """
        replicas = self.replicas_for(row)
        required = consistency.required_acks(self.replication_factor)
        hashes = key_hashes(row, column)  # one hash for every replica
        held: Dict[str, Optional[Cell]] = {}
        worst_cost = 0.0
        for name in replicas:
            node = self.nodes[name]
            if node.is_down:
                continue
            held[name], cost = node.lookup(row, column, hashes)
            worst_cost = max(worst_cost, cost)
            if len(held) >= required:
                break
        if len(held) < required:
            raise QuorumError(
                f"read {row!r}/{column!r}: {len(held)} replies < required "
                f"{required} ({consistency.value})"
            )
        winner = newest_by(filter(None, held.values()), "key").get(
            (row, column))
        if winner is not None and len(held) > 1:
            for name in replicas:
                node = self.nodes[name]
                if node.is_down:
                    continue
                try:
                    mine = (held[name] if name in held
                            else node.lookup(row, column, hashes)[0])
                    if mine != winner and (mine is None
                                           or winner.supersedes(mine)):
                        node.apply([winner])
                except StoreError:
                    continue
        if winner is None or not winner.live(self.clock()):
            return ReadResult(None, 0.0, list(held), worst_cost)
        return ReadResult(winner.value, winner.write_ts, list(held),
                          worst_cost)

    # -- maintenance / introspection ----------------------------------------------
    def column_cells(self, column: str) -> Dict[str, "Cell"]:
        """Newest live cell per row for one column across live nodes.

        The offline complement of :meth:`read`: replicas reconcile by
        last-write-wins but nothing is repaired, charged, or counted.
        Used by post-run inspection (``SimRuntime.slates_of`` with
        ``read_through=True``) to see slates that were flushed and then
        dropped from every cache — e.g. by a full-rehydration cutover
        whose keys saw no later traffic.
        """
        return newest_by(
            (cell for _, node in sorted(self.nodes.items())
             if not node.is_down
             for cell in node.column_cells(column).values()), "row")

    def close(self) -> None:
        """Release every node's file handles (durable stores)."""
        for node in self.nodes.values():
            node.close()

    def stored_bytes(self) -> int:
        """Bytes across all nodes (replicas counted separately)."""
        return sum(node.stored_bytes() for node in self.nodes.values())

    def stats_by_node(self) -> Dict[str, Dict[str, int]]:
        """Per-node operation counters."""
        return {name: node.stats.as_dict()
                for name, node in self.nodes.items()}
