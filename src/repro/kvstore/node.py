"""A single LSM storage node — our from-scratch Cassandra stand-in.

Write path (:meth:`StorageNode.apply`, the only one): append to the commit
log (sequential I/O; a durable log is flushed to the operating system once
per call, before the write is acknowledged), then buffer in the memtable;
when the memtable exceeds its threshold, flush it as a new SSTable
(sequential I/O) and truncate the log, then compact by one size-tiered
policy (:meth:`StorageNode._compact_due`): merge every run once the newer
ones hold half the oldest one's bytes, else merge the newest few while
they are of similar size. Only the merge of every run purges TTL-expired
cells and tombstones. Read path: memtable first (free), then SSTables
newest-first, charging one random read per file actually probed; bloom
filters skip files that cannot hold the row.

This reproduces the economics the paper relies on in Section 4.2:
overwrites of hot slates are absorbed in memory, flushed rows live in files
(a durable node keeps each run's index in memory, not its cells), flushes
and compactions are streaming I/O that competes with read-serving random
I/O (the SSD argument), and TTL garbage collection happens at compaction
time.

Time is externalized: the node never sleeps; every operation *returns* its
simulated duration, and heavy background work (flush/compaction) accrues in
``pending_background_s`` for the caller's background-I/O thread to drain —
matching Muppet 2.0's dedicated background kv-store thread (Section 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import StoreError
from repro.kvstore.cells import Cell, newest_by
from repro.kvstore.commitlog import CommitLog, encode_record
from repro.kvstore.device import StorageDevice
from repro.kvstore.memtable import Memtable
from repro.kvstore.sstable import SSTable, key_hashes, merge_sstables
from repro.obs.registry import CounterFields

#: Space rule of :meth:`StorageNode._compact_due`: newer runs may hold this
#: fraction of the oldest run's bytes before everything is merged. It
#: rations bytes rewritten, not RSS (a durable run keeps only its index in
#: memory): over 200 000 ``store_churn`` operations 0.5 compacts 205.8 MB,
#: merge-everything 511.6 and no cap (which never purges) 165.2, all
#: peaking at 94-96 MiB of RSS.
SPACE_CAP = 0.5


@dataclass(slots=True)
class NodeStats(CounterFields):
    """Operation counters for one storage node."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    memtable_hits: int = 0
    sstables_probed: int = 0
    bloom_skips: int = 0
    flushes: int = 0
    compactions: int = 0
    bytes_flushed: int = 0
    bytes_compacted: int = 0
    ttl_purged_cells: int = 0


class StorageNode:
    """One node of the key-value store: commit log + memtable + SSTables.

    Args:
        name: Node name (usually the machine name it is co-located with).
        device: The storage device model charged for every I/O.
        clock: Returns "now" in seconds — wall clock for the local
            runtime, virtual clock for the simulator. Drives TTL expiry.
        memtable_flush_bytes: Flush threshold; larger values buffer more
            overwrites (the paper delays flushing "as long as possible").
        compaction_threshold: The merge width *T*: no merge below *T*
            runs, and a partial merge takes the newest *T*.
        data_dir: Directory for persistent SSTables and commit log;
            ``None`` keeps everything in memory (costs still charged).

    Thread safety: callers serialize access (the engines funnel kv-store
    traffic through one background I/O thread, as Muppet 2.0 does).
    """

    def __init__(
        self,
        name: str,
        device: Optional[StorageDevice] = None,
        clock: Callable[[], float] = lambda: 0.0,
        memtable_flush_bytes: int = 4 * 1024 * 1024,
        compaction_threshold: int = 8,
        data_dir: Optional[Path] = None,
    ) -> None:
        self.name = name
        self.device = device or StorageDevice.ssd()
        self.clock = clock
        self.memtable_flush_bytes = memtable_flush_bytes
        self.compaction_threshold = max(2, compaction_threshold)
        self._data_dir = Path(data_dir) if data_dir is not None else None
        log_path = (self._data_dir / f"{name}.commitlog"
                    if self._data_dir is not None else None)
        self._log = CommitLog(log_path)
        self._memtable = Memtable()
        self._sstables: List[SSTable] = []  # oldest first
        #: Generation of the next run. It only ever grows, across
        #: restarts too, so it names run files without collisions and
        #: orders them on reopen.
        self._next_generation = 1
        self.stats = NodeStats()
        #: Simulated seconds of flush/compaction work awaiting the
        #: background I/O thread.
        self.pending_background_s = 0.0
        self.is_down = False

    # -- write path ------------------------------------------------------------
    def put(self, row: str, column: str, value: bytes,
            ttl: Optional[float] = None) -> float:
        """Write one cell; returns the foreground I/O time in seconds."""
        return self.apply([Cell(row, column, value, self.clock(), ttl)])

    def put_many(
        self,
        cells: List[Tuple[str, str, bytes, Optional[float]]],
    ) -> float:
        """Write a multi-cell batch ``[(row, column, value, ttl), ...]``,
        all stamped with one reading of the clock — the coalesced-flush
        path of the slate managers. Returns the foreground I/O time."""
        now = self.clock()
        return self.apply([Cell(row, column, value, now, ttl)
                           for row, column, value, ttl in cells])

    def apply(self, cells: List[Cell],
              _sizes: Optional[List[int]] = None,
              _records: Optional[List[bytes]] = None) -> float:
        """Write cells as stamped — the node's one write path, for its own
        ``put`` / ``put_many`` and for the coordinator's replicas, hints
        and read repairs alike. A cell with no value is a tombstone.

        The cells share one commit-log append chain, one log flush, one
        sequential-write charge for the combined bytes and one memtable
        flush-threshold check. The coordinator prices (``_sizes``) and
        encodes (``_records``) each cell once for every replica.
        Returns the foreground I/O time.
        """
        self._check_up()
        for cell in cells:
            ttl = cell.ttl
            if ttl is not None and not isinstance(ttl, (int, float)):
                raise StoreError(
                    f"ttl must be a number of seconds or None, got {ttl!r}"
                )
        # A durable node encodes each record once (unless the coordinator
        # did): the log writes it and the memtable keeps it for the flush.
        if self._data_dir is None:
            records: Iterable[Optional[bytes]] = repeat(None)
        else:
            records = _records or list(map(encode_record, cells))
        total_bytes = 0
        for cell, size, record in zip(cells, _sizes or repeat(None),
                                      records):
            total_bytes += self._log.append(cell, _size=size,
                                            _record=record)
        self._log.flush()
        cost = self.device.charge_sequential_write(total_bytes)
        stats = self.stats
        for cell, record in zip(cells, records):
            stats.puts += 1
            if cell.value is None:
                stats.deletes += 1
            self._memtable.put(cell, record)
        if self._memtable.size_bytes >= self.memtable_flush_bytes:
            self.flush()
        return cost

    # -- read path ----------------------------------------------------------
    def lookup(self, row: str, column: str,
               hashes: Optional[Tuple[int, int]] = None,
               ) -> Tuple[Optional[Cell], float]:
        """The newest cell for (row, column) and the simulated read time.

        The cell may be a tombstone or TTL-expired — replicas reconcile on
        it; :meth:`get` is the view that hides those — or ``None`` when
        the node has no version at all. ``hashes`` is ``key_hashes(row,
        column)`` when the caller (a coordinator asking several replicas)
        has hashed the key already.
        """
        self._check_up()
        self.stats.gets += 1
        cell = self._memtable.get(row, column)
        if cell is not None:
            self.stats.memtable_hits += 1
            return cell, 0.0

        cost = 0.0
        if not self._sstables:
            return None, cost
        if hashes is None:
            hashes = key_hashes(row, column)  # one hash probes every run
        for table in reversed(self._sstables):  # newest first
            if not table.might_contain(row, column, hashes):
                self.stats.bloom_skips += 1
                continue
            self.stats.sstables_probed += 1
            found = table.get(row, column)
            # Bloom false positive: charge the probe, keep searching.
            probe_size = found.size_bytes() if found is not None else 64
            cost += self.device.charge_random_read(probe_size)
            if found is not None:
                return found, cost
        return None, cost

    def get(self, row: str, column: str) -> Tuple[Optional[bytes], float]:
        """Read the live value for (row, column).

        Returns:
            ``(value, cost_s)`` where value is None when absent, deleted,
            or TTL-expired, and cost_s is the simulated read time.
        """
        cell, cost = self.lookup(row, column)
        now = self.clock()  # hit or miss: E8's clock advances per reading
        if cell is None or not cell.live(now):
            return None, cost
        return cell.value, cost

    def column_cells(self, column: str) -> Dict[str, Cell]:
        """Newest live cell per row for one column (offline inspection).

        Walks the memtable and every SSTable without charging simulated
        I/O or touching the operation counters — this is the post-run
        read-through path, not a store operation the workload pays for.
        """
        now = self.clock()
        cells = [cell for table in self._sstables for cell in table.cells()]
        cells.extend(self._memtable._cells.values())
        newest = newest_by(
            (cell for cell in cells if cell.column == column), "row")
        return {row: cell for row, cell in newest.items() if cell.live(now)}

    # -- maintenance -------------------------------------------------------------
    def flush(self) -> float:
        """Flush the memtable to a new SSTable; returns background cost."""
        if len(self._memtable) == 0:
            return 0.0
        generation, path = self._next_run()
        cells, records = self._memtable.sorted_for_flush()
        table = SSTable(cells, generation=generation, path=path,
                        records=records if path is not None else None)
        self._sstables.append(table)
        cost = self.device.charge_sequential_write(table.size_bytes)
        self.pending_background_s += cost
        self.stats.flushes += 1
        self.stats.bytes_flushed += table.size_bytes
        self._memtable.clear()
        self._log.truncate()
        return cost + self._compact_due()

    def _compact_due(self) -> float:
        """The compaction policy, decided after every flush once there are
        *T* (``compaction_threshold``) runs. **Space rule**: if the runs
        newer than the oldest together hold :data:`SPACE_CAP` of its
        bytes, merge every run — the one merge that purges, so garbage
        goes after a bounded amount of newer data. **Size rule**:
        otherwise, while the newest *T* runs are within a factor *T* of
        each other in size, merge those *T* into one."""
        width = self.compaction_threshold
        cost = 0.0
        while len(self._sstables) >= width:
            sizes = [table.size_bytes for table in self._sstables]
            if sum(sizes[1:]) >= SPACE_CAP * sizes[0]:
                return cost + self.compact()
            newest = sizes[-width:]
            if max(newest) > width * min(newest):
                break
            cost += self._merge_newest(width)
        return cost

    def compact(self) -> float:
        """Merge all SSTables into one; purge TTL-expired cells/tombstones.

        Returns the background I/O time (read inputs + write output).
        """
        return self._merge_newest(len(self._sstables))

    def _merge_newest(self, count: int) -> float:
        """Merge the ``count`` newest runs into one that takes their place
        (and the next generation), so runs stay in age order. Purges only
        when that is every run: a tombstone or expired cell dropped from a
        partial merge would uncover an older version in an older run."""
        if count <= 1:
            return 0.0
        kept, inputs = self._sstables[:-count], self._sstables[-count:]
        purge = not kept
        input_bytes = sum(t.size_bytes for t in inputs)
        cost = self.device.charge_sequential_read(input_bytes)
        generation, path = self._next_run()
        merged = merge_sstables(inputs, now=self.clock(), purge=purge,
                                path=path, generation=generation)
        cost += self.device.charge_sequential_write(merged.size_bytes)
        if purge:
            self.stats.ttl_purged_cells += (sum(len(t) for t in inputs)
                                            - len(merged))
        # Oldest first: whatever a crash leaves behind is the merged run
        # plus the newest inputs, which still read the same.
        for table in inputs:
            table.delete_file()
        if len(merged):
            kept.append(merged)
        else:
            merged.delete_file()  # nothing survived: leave no empty run
        self._sstables = kept
        self.stats.compactions += 1
        self.stats.bytes_compacted += input_bytes
        self.pending_background_s += cost
        return cost

    def _next_run(self) -> Tuple[int, Optional[Path]]:
        """Generation and file (``None`` in memory) of the next run."""
        generation = self._next_generation
        self._next_generation = generation + 1
        if self._data_dir is None:
            return generation, None
        return generation, self._data_dir / f"{self.name}-{generation:08d}.sst"

    def take_background_cost(self) -> float:
        """Drain accrued flush/compaction time (background-thread hook)."""
        cost = self.pending_background_s
        self.pending_background_s = 0.0
        return cost

    @classmethod
    def open(cls, name: str, data_dir: Path, **kwargs) -> "StorageNode":
        """Reopen a node from its persisted state (cold process restart).

        Loads every ``*.sst`` run in ``data_dir``, ordered by the
        generation in its header, and replays the commit log into a fresh
        memtable — the full durability story: flushed data comes back
        from SSTables, acknowledged-but-unflushed writes from the log.
        Nothing acknowledged is rewritten on the way (the log is continued
        in place), so a restart that dies at any point can be repeated.
        A run keeps only its index in memory and opens its file at its
        first read, so a run that fails to load leaves no handle open.
        """
        data_dir = Path(data_dir)
        # Built in memory, then pointed at the directory: constructing it
        # there would start a new, empty log segment.
        node = cls(name, **kwargs)
        node._data_dir = data_dir
        try:
            for unfinished in data_dir.glob("*.sst.tmp"):
                unfinished.unlink()
        except OSError as exc:
            raise StoreError(f"stale run cleanup failed: {exc}") from exc
        node._sstables = sorted(
            (SSTable.load(path) for path in data_dir.glob("*.sst")),
            key=lambda table: table.generation)
        if node._sstables:
            node._next_generation = node._sstables[-1].generation + 1
        node._log = CommitLog.open(data_dir / f"{name}.commitlog")
        node.recover()
        return node

    def close(self) -> None:
        """Release the commit log's and the runs' file handles (durable
        nodes); a run read after this opens its file again."""
        self._log.close()
        for table in self._sstables:
            table.close()

    # -- failure / recovery ---------------------------------------------------
    def crash(self) -> None:
        """Simulate a process crash: lose the memtable, keep durable state."""
        self._memtable = Memtable()
        self.is_down = True

    def recover(self) -> int:
        """Replay the commit log into a fresh memtable; returns cells."""
        durable = self._data_dir is not None
        replayed = 0
        for cell in self._log.replay():
            self._memtable.put(cell, encode_record(cell) if durable else None)
            replayed += 1
        self.is_down = False
        return replayed

    def _check_up(self) -> None:
        if self.is_down:
            raise StoreError(f"storage node {self.name!r} is down")

    # -- introspection -----------------------------------------------------------
    @property
    def absorbed_overwrites(self) -> int:
        """Disk writes avoided by in-memory overwrites (Section 4.2)."""
        return self._memtable.absorbed_overwrites

    def observable_state(self) -> Dict[str, int]:
        """Structural gauges for the metrics registry: LSM shape and
        liveness, alongside (not duplicating) the ``stats`` counters."""
        return {
            "memtable_cells": len(self._memtable),
            "memtable_bytes": self._memtable.size_bytes,
            "sstables": len(self._sstables),
            "stored_bytes": self.stored_bytes(),
            "down": int(self.is_down),
        }

    def total_cells(self) -> int:
        """Cells across memtable and SSTables (duplicates included)."""
        return len(self._memtable) + sum(len(t) for t in self._sstables)

    def stored_bytes(self) -> int:
        """Approximate bytes across memtable and SSTables."""
        return (self._memtable.size_bytes
                + sum(t.size_bytes for t in self._sstables))
