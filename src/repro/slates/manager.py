"""SlateManager: the cache-over-store slate lifecycle (Section 4.2).

"When the updater U needs the slate with key k, Muppet first checks the
cache ... If the slate is not found, Muppet retrieves the slate from the
Cassandra cluster by reading the value indexed by the pair <k, U>. The
retrieved value is decompressed then passed to the updater. If the requested
slate does not exist in Cassandra ... Muppet initializes a new slate in the
cache."

The manager also implements the flush spectrum: "dirty (updated) slates are
periodically flushed to the key-value store. The application can set the
flushing interval, ranging from 'immediate write-through' to 'only when
evicted from cache'."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional

from repro.core.operators import Updater
from repro.core.slate import Slate, SlateKey
from repro.errors import ConfigurationError, StoreError
from repro.kvstore.api import ConsistencyLevel
from repro.kvstore.cluster import ReplicatedKVStore
from repro.slates.cache import SlateCache
from repro.slates.codec import DEFAULT_CODEC, split_watermarks

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from repro.obs import Tracer


@dataclass(frozen=True)
class FlushPolicy:
    """When dirty slates are written to the key-value store.

    Attributes:
        kind: ``"write_through"`` (flush on every update),
            ``"interval"`` (flush dirty slates every ``interval_s``), or
            ``"on_evict"`` (flush only when the cache evicts a dirty
            slate).
        interval_s: Flush period for the ``"interval"`` kind.
    """

    kind: str = "interval"
    interval_s: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("write_through", "interval", "on_evict"):
            raise ConfigurationError(
                f"unknown flush policy {self.kind!r}; use write_through, "
                "interval, or on_evict"
            )
        if self.kind == "interval" and self.interval_s <= 0:
            raise ConfigurationError(
                "FlushPolicy interval_s must be positive, got "
                f"{self.interval_s!r}; use FlushPolicy.write_through() "
                "for per-update flushing or FlushPolicy.on_evict() to "
                "flush only at eviction"
            )

    @classmethod
    def write_through(cls) -> "FlushPolicy":
        """Immediate write-through — maximal durability."""
        return cls(kind="write_through")

    @classmethod
    def every(cls, seconds: float) -> "FlushPolicy":
        """Periodic flushing of dirty slates."""
        return cls(kind="interval", interval_s=seconds)

    @classmethod
    def on_evict(cls) -> "FlushPolicy":
        """Flush only at eviction — minimal write volume, maximal loss
        exposure on crash (Section 4.3 accepts this trade)."""
        return cls(kind="on_evict")


#: Retry/backoff for the manager's kv operations. A transient store error
#: (e.g. a :class:`~repro.errors.QuorumError` during a kv-node outage) is
#: tried ``KV_MAX_ATTEMPTS`` times in all, the wait doubling from
#: ``KV_BASE_DELAY_S``; the backoff time is charged as simulated I/O wait
#: and counted. When the attempts are exhausted the operation *degrades*
#: instead of raising — a failed read behaves as a cache miss (the slate
#: re-initializes), a failed write leaves the slate dirty for the next
#: flush cycle to retry. Both are counted, so degradation is observable;
#: no :class:`~repro.errors.StoreError` ever escapes to operator code.
KV_MAX_ATTEMPTS = 4
KV_BASE_DELAY_S = 0.002


@dataclass(slots=True)
class SlateManagerStats:
    """KV traffic, retry, and loss accounting for one slate manager."""

    kv_reads: int = 0
    kv_writes: int = 0
    kv_read_misses: int = 0
    initialized: int = 0
    ttl_resets: int = 0
    lost_dirty_on_crash: int = 0
    kv_retries: int = 0
    kv_backoff_s: float = 0.0
    fail_open_reads: int = 0
    fail_open_writes: int = 0
    rehydrated: int = 0
    #: Coalesced-flush accounting: multi-cell kv batches shipped, and
    #: how many dirty slates rode them (also counted in kv_writes).
    batch_flushes: int = 0
    batched_writes: int = 0


class Snapshot(NamedTuple):
    """What a flush writes for one slate: its blob, encoded at ``version``."""

    slate: Slate
    version: int
    blob: bytes


class SlateManager:
    """Owns one slate cache and its synchronization with the kv-store.

    Muppet 1.0 builds one manager per worker (fragmented caches);
    Muppet 2.0 builds one per machine (the central cache). Engines
    serialize access per manager. Slates are encoded with
    :data:`~repro.slates.codec.DEFAULT_CODEC` (JSON+zlib, like Muppet).

    Args:
        store: Backing replicated store; ``None`` disables persistence
            (slates then live only in cache — the Storm/S4 situation the
            paper contrasts against).
        cache_capacity: Resident-slate limit for the LRU cache.
        flush_policy: See :class:`FlushPolicy`.
        clock: Time source for TTLs and flush scheduling.
        consistency: Consistency level for kv reads/writes.
        max_slate_bytes: Optional hard cap on slate size (Section 5's
            "keep slates small" advice, enforced).
        tracer: Optional :class:`repro.obs.Tracer`; when set the manager
            emits ``slate_read``/``slate_flush`` spans. Strictly
            passive — never consulted except behind ``is not None``.
        owner: Name of the machine this manager belongs to. Purely
            observational: when set, slate spans carry ``machine=owner``
            so the trace invariant checker can verify ring ownership of
            slate traffic.
    """

    def __init__(
        self,
        store: Optional[ReplicatedKVStore],
        cache_capacity: int = 10_000,
        flush_policy: FlushPolicy = FlushPolicy.every(1.0),
        clock: Callable[[], float] = lambda: 0.0,
        consistency: ConsistencyLevel = ConsistencyLevel.ONE,
        max_slate_bytes: Optional[int] = None,
        tracer: Optional["Tracer"] = None,
        owner: Optional[str] = None,
    ) -> None:
        self.store = store
        self.flush_policy = flush_policy
        self.clock = clock
        self.consistency = consistency
        self.max_slate_bytes = max_slate_bytes
        self.tracer = tracer
        self.owner = owner
        #: Extra kwargs stamped onto every slate span (empty when the
        #: manager has no owning machine, e.g. the threaded engines).
        self._span_tags = {} if owner is None else {"machine": owner}
        self.cache = SlateCache(cache_capacity, on_evict=self._evicted)
        self.stats = SlateManagerStats()
        self._last_interval_flush = 0.0
        self._rehydrating = False
        #: Simulated I/O seconds accrued by kv traffic since last drain
        #: (the engines' background I/O thread picks this up).
        self.pending_io_s = 0.0

    # -- fetch ------------------------------------------------------------------
    def get(self, updater: Updater, key: str) -> Slate:
        """Fetch the slate for (updater, key): cache → store → initialize.

        TTL expiry is honored at every layer: an expired cached slate is
        re-initialized; the store returns nothing for expired cells.
        """
        now = self.clock()
        slate_key = SlateKey(updater.get_name(), key)
        slate = self.cache.get(slate_key)
        if slate is not None and slate.expired(now):
            self.cache.remove(slate_key)
            self.stats.ttl_resets += 1
            slate = None
        if slate is not None:
            return slate

        slate = self._fetch_from_store(updater, slate_key, now)
        if slate is None:
            slate = Slate(slate_key, updater.init_slate(key),
                          ttl=updater.slate_ttl, created_ts=now)
            self.stats.initialized += 1
        self.cache.put(slate)
        return slate

    def _fetch_from_store(self, updater: Updater, slate_key: SlateKey,
                          now: float) -> Optional[Slate]:
        if self.store is None:
            return None
        row, column = slate_key.row_column()
        self.stats.kv_reads += 1
        try:
            result = self._kv_call(
                lambda: self.store.read(row, column, self.consistency))
        except StoreError:
            # Fail-open degradation: treat the unreachable store as a
            # miss; the slate re-initializes and later flushes heal it.
            self.stats.fail_open_reads += 1
            self.stats.kv_read_misses += 1
            return None
        self.pending_io_s += result.cost_s
        if self.tracer is not None:
            self.tracer.emit(self.clock(), "slate_read",
                             updater=slate_key.updater, key=slate_key.key,
                             row=row, column=column,
                             hit=result.value is not None,
                             **self._span_tags)
        if result.value is None:
            self.stats.kv_read_misses += 1
            return None
        fields, watermarks = split_watermarks(DEFAULT_CODEC.decode(result.value))
        slate = Slate(slate_key, fields,
                      ttl=updater.slate_ttl, created_ts=now)
        # Watermarks ride the same blob as the fields, so a re-hydrated
        # slate's dedup state is exactly as fresh as its data — the
        # atomicity that makes replayed-event dedup sound after a crash.
        slate.set_watermarks(watermarks)
        slate.last_update_ts = result.write_ts
        if slate.expired(now):
            self.stats.ttl_resets += 1
            return None
        slate.mark_clean()
        if self._rehydrating:
            self.stats.rehydrated += 1
        return slate

    def _kv_call(self, op):
        """Run one kv operation under the retry/backoff constants.

        Backoff is virtual: each retry charges its delay to
        ``pending_io_s`` (the engine's background I/O accounting) and to
        the backoff counter; the final failure propagates to the caller,
        which degrades (fails open).
        """
        delay = KV_BASE_DELAY_S
        attempt = 1
        while True:
            try:
                return op()
            except StoreError:
                if attempt >= KV_MAX_ATTEMPTS:
                    raise
                attempt += 1
                self.stats.kv_retries += 1
                self.stats.kv_backoff_s += delay
                self.pending_io_s += delay
                delay *= 2.0

    # -- write-back ------------------------------------------------------------
    def note_update(self, slate: Slate) -> None:
        """Record that an updater just modified ``slate``.

        Under write-through this immediately persists; otherwise the slate
        stays dirty for the periodic/evict flush.
        """
        slate.check_size(self.max_slate_bytes)
        if self.flush_policy.kind == "write_through":
            self._flush_slate(slate)

    def flush_due(self) -> int:
        """Flush dirty slates if the interval policy says it is time.

        Returns the number of slates flushed. Call frequently (engines call
        it from their background I/O thread) — the cache's incremental
        dirty index makes each call O(dirty slates), so an idle tick with
        nothing dirty costs two comparisons, not a resident-set scan.
        """
        return self.flush_all_dirty() if self.take_due() else 0

    def start_interval(self) -> None:
        """Start the interval clock now, so the first interval flush
        falls one interval later. The threaded engines call this when
        they start; a simulated manager counts from time zero."""
        self._last_interval_flush = self.clock()

    def take_due(self) -> bool:
        """Claim a due interval flush: True, with the interval clock
        restarted, when one is due; the caller then flushes. The threaded
        engine's flusher uses this with :meth:`dirty_keys` /
        :meth:`snapshot` / :meth:`write_snapshots` instead of
        :meth:`flush_due` so it can take each slate's lock around the
        encode — a worker mutating slate fields mid-encode would otherwise
        tear the blob. Only an interval policy reads the clock."""
        if self.flush_policy.kind != "interval":
            return False
        now = self.clock()
        if now - self._last_interval_flush < self.flush_policy.interval_s:
            return False
        self._last_interval_flush = now
        return True

    def dirty_keys(self) -> List[SlateKey]:
        """Keys of resident dirty slates, in first-dirtied order."""
        return [slate.slate_key for slate in self.cache.dirty_slates()]

    def flush_one(self, slate_key: SlateKey) -> bool:
        """Flush one slate by key if it is resident and dirty.

        Returns True if the slate was written clean. Safe to call with
        keys that were flushed/evicted since :meth:`dirty_keys` listed
        them — those return False.
        """
        slate = self.cache.peek(slate_key)
        if slate is None or not slate.dirty:
            return False
        self._flush_slate(slate)
        return not slate.dirty

    def flush_all_dirty(self) -> int:
        """Flush every dirty resident slate; returns the flushed count
        (two or more ride one coalesced batch: :meth:`write_snapshots`)."""
        slates = self.cache.dirty_slates()
        if self.store is not None:
            slates = [snap.slate for snap in self.write_snapshots(
                [self.snapshot(slate) for slate in slates])]
        for slate in slates:
            slate.mark_clean()
        return len(slates)

    def _flush_slate(self, slate: Slate) -> None:
        if self.store is None or self.write_snapshots([self.snapshot(slate)]):
            slate.mark_clean()

    def snapshot(self, slate: Slate) -> Snapshot:
        """``slate`` as a flush writes it now: the blob (cached per
        version, so an unchanged slate encodes once) and that version.

        Raises:
            SlateError: The codec cannot encode the slate's fields.
        """
        return Snapshot(slate, slate.version, slate.encoded_with(DEFAULT_CODEC))

    def write_snapshots(self, snapshots: List[Snapshot]) -> List[Snapshot]:
        """Write snapshots to the store: every flush's one kv write path.

        Two or more go as one coalesced
        :meth:`ReplicatedKVStore.write_batch` (multi-cell writes per
        replica set) instead of one kv write per slate. One alone, or a
        batch the store refused, goes one write per slate, each with its
        own retry cycle; a slate whose write still fails is counted and
        stays dirty, so the next flush cycle retries it once the store
        heals (fail-open; a partial batch is harmless — last-write-wins
        makes re-writes idempotent). A dirty slate evicted while the store
        is down is lost: the same bounded exposure as a crash between
        flushes. Returns the snapshots the store acknowledged, accounted
        and traced; clearing their dirty flags is the caller's.
        """
        if len(snapshots) > 1:
            writes = [(*snap.slate.slate_key.row_column(), snap.blob,
                       snap.slate.ttl) for snap in snapshots]
            try:
                result = self.store.write_batch(writes,
                                                consistency=self.consistency)
            except StoreError:
                result = None  # degrade to the per-slate path below
            if result is not None:
                self.stats.batch_flushes += 1
                self.stats.batched_writes += len(snapshots)
                self._written(snapshots, result.cost_s, batched=True)
                return snapshots
        written = []
        for snap in snapshots:
            row, column = snap.slate.slate_key.row_column()
            try:
                result = self._kv_call(lambda: self.store.write(
                    row, column, snap.blob, ttl=snap.slate.ttl,
                    consistency=self.consistency))
            except StoreError:
                self.stats.fail_open_writes += 1
                continue
            self._written([snap], result.cost_s, batched=False)
            written.append(snap)
        return written

    def _written(self, snapshots: List[Snapshot], cost_s: float,
                 batched: bool) -> None:
        """The store acknowledged ``snapshots``: account and trace."""
        self.pending_io_s += cost_s
        self.stats.kv_writes += len(snapshots)
        if self.tracer is not None:
            now = self.clock()
            for snap in snapshots:
                row, column = snap.slate.slate_key.row_column()
                self.tracer.emit(now, "slate_flush",
                                 updater=snap.slate.slate_key.updater,
                                 key=snap.slate.slate_key.key,
                                 row=row, column=column, batched=batched,
                                 **self._span_tags)

    def _evicted(self, slate: Slate) -> None:
        """Cache eviction hook: persist dirty victims (all policies)."""
        if slate.dirty:
            self._flush_slate(slate)

    # -- live migration (elastic scaling) ---------------------------------------
    def import_blob(self, slate_key: SlateKey, blob: bytes,
                    ttl: Optional[float], last_update_ts: float,
                    now: float) -> Slate:
        """Install a slate handed off by another machine's manager.

        The blob is a donor-side :meth:`Slate.encoded_with` payload, so
        the dedup watermarks ride inside it and are split out here —
        the receiver's replay-dedup state is exactly as fresh as the
        handed-off data (the same atomicity as the store read path).

        The imported slate lands *dirty*: between cutover and the
        receiver's next flush, this cache holds the only copy newer
        than the store, and the dirty flag is what guarantees the
        ordinary flush machinery (and the migration ack barrier)
        persists it rather than silently dropping the freshest state.
        """
        fields, watermarks = split_watermarks(DEFAULT_CODEC.decode(blob))
        slate = Slate(slate_key, fields, ttl=ttl, created_ts=now)
        slate.set_watermarks(watermarks)
        slate.last_update_ts = last_update_ts
        slate.dirty = True
        self.cache.put(slate)
        return slate

    def drop(self, slate_key: SlateKey) -> Optional[Slate]:
        """Release ownership of a slate without flushing it.

        Migration cutover calls this on the *donor* after the receiver
        installed the handed-off blob: the donor's copy — dirty or not
        — is no longer authoritative, and flushing it here would race
        the receiver's own writes (last-write-wins could resurrect
        pre-handoff state). Returns the dropped slate, or None.
        """
        return self.cache.remove(slate_key)

    # -- failure ---------------------------------------------------------------
    def crash(self) -> int:
        """Lose the cache without flushing, as when a machine dies.

        "When an updater fails, whatever changes that it has made to the
        slates and that have not yet been flushed to the key-value store
        are lost" (Section 4.3). Returns the number of dirty slates lost.
        """
        lost = len(self.cache.dirty_slates())
        self.stats.lost_dirty_on_crash += lost
        self.cache.clear()
        return lost

    def revive(self) -> None:
        """Bring a crashed manager back with a cold cache.

        Re-hydration is lazy, exactly the Section 4.2 miss path: the
        cache is empty, so each slate the revived machine owns again is
        refetched from the replicated kv-store on first touch. Store
        fetches from here on are counted in ``stats.rehydrated``.
        """
        self._rehydrating = True

    def take_pending_io(self) -> float:
        """Drain accrued kv I/O time (background-thread hook)."""
        cost = self.pending_io_s
        self.pending_io_s = 0.0
        return cost
