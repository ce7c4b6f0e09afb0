"""The real-thread, single-machine Muppet engine and its 2.0 worker layout.

Where :mod:`repro.sim` reproduces cluster-scale behaviour under a virtual
clock, this module is Muppet on one actual machine, with actual threads.

:class:`ThreadedEngine` is the one delivery path: compiled routes, bounded
queues with drop / divert / block-the-source overflow handling, a
background I/O thread that periodically flushes dirty slates to the
key-value store, and watermark timers for windowed applications (hot
topics, Example 5). A worker layout adds the pool and how an operator runs.

:class:`LocalMuppet` is the Muppet 2.0 layout — "we start up many threads
of execution in a dedicated thread pool per machine. Each thread in this
thread pool is now a worker, capable of running any map or update
function" (Section 4.5): one operator instance per function ("constructed
only once and shared by all threads"), one central slate manager,
primary/secondary two-choice dispatch, the operator called directly.
:class:`repro.muppet.local1.LocalMuppet1` is the 1.0 layout.

Four locks, acquired in the order dispatch < slate stripe < manager < timer
(lint rule MUP008), in either layout. The dispatch lock guards the worker
records, the in-flight count, the counters and the watermark; a delivery
takes it to be enqueued, once more for everything its operator call emits,
and once when its worker completes it and polls the next item. A parked
worker waits on its own condition over that lock and is woken alone, by
its enqueuer. Every slate manager is entered under the one manager lock.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.core.application import Application
from repro.core.event import Event, EventCounter
from repro.core.operators import Context, Operator, TimerRequest
from repro.core.slate import Slate, SlateKey
from repro.errors import (ConfigurationError, EngineStoppedError, SlateError,
                          StoreError, WorkflowError)
from repro.kvstore.cluster import ReplicatedKVStore
from repro.muppet.dispatch import KeyFn, TwoChoiceDispatcher
from repro.muppet.queues import BoundedQueue, OverflowPolicy
from repro.obs import LatencyRecorder, MetricsRegistry
from repro.slates.codec import DEFAULT_CODEC
from repro.slates.manager import (FlushPolicy, SlateManager,
                                  SlateManagerStats, Snapshot)

#: Slate locks are a fixed array indexed by ``hash((updater, key))``: nothing
#: to register or leak, and two slates sharing a stripe merely take turns.
SLATE_LOCK_STRIPES = 256

#: Dirty slates per flusher kv batch: one manager-lock hold, well under 1 ms.
FLUSH_CHUNK = 64

#: Slates a machine keeps resident: one cache in the 2.0 layout, split
#: evenly over the workers' private caches in the 1.0 layout.
CACHE_SLATES = 100_000

#: How long a throttled source sleeps between retries when its target
#: queue is full (the block-the-source overflow policy).
THROTTLE_POLL_S = 0.001

_tuple_new, _object_new = tuple.__new__, object.__new__  # no __init__ frame


@dataclass(kw_only=True)
class ThreadedConfig:
    """The knobs both worker layouts honour, declared once."""

    queue_capacity: int = 10_000
    overflow: OverflowPolicy = field(default_factory=OverflowPolicy.drop)
    flush_policy: FlushPolicy = field(
        default_factory=lambda: FlushPolicy.every(0.5))
    flusher_period_s: float = 0.1
    record_latency: bool = True
    max_slate_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.flusher_period_s <= 0:
            # Event.wait(0) returns at once: the flusher would spin.
            raise ConfigurationError(
                "flusher_period_s must be > 0 seconds, got "
                f"{self.flusher_period_s!r}")


@dataclass
class LocalConfig(ThreadedConfig):
    """Knobs for the 2.0 thread pool."""

    num_threads: int = 4

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ConfigurationError("num_threads must be >= 1")
        super().__post_init__()


class _Route(NamedTuple):
    """One subscriber of a stream, compiled from the workflow once."""

    name: str
    instance: Operator
    is_map: bool
    publishes: Tuple[str, ...]


class _WorkItem(NamedTuple):
    """One queued delivery: an event (or a fired timer) for one function."""

    event: Event
    route: _Route
    birth: float
    timer: Optional[TimerRequest] = None


class _Worker:
    """One pool thread's record. The dispatch lock guards its queue, the
    (key, function) it is executing (the dispatcher's affinity), the
    condition over that lock it parks on, and whether it is parked; the
    slate manager it reads and writes is set once."""

    __slots__ = ("queue", "current", "cond", "parked", "manager")

    def __init__(self, capacity: int, lock: Any, manager: SlateManager) -> None:
        self.queue: BoundedQueue[_WorkItem] = BoundedQueue(capacity)
        self.current: Optional[KeyFn] = None
        self.cond = threading.Condition(lock)
        self.parked = False
        self.manager = manager


class ThreadedEngine:
    """Run one MapUpdate application on local threads.

    A subclass is a worker layout. Its ``_build_pool()`` returns the worker
    records (over ``self._dispatch_lock``, each with the slate manager it
    uses) and the object whose ``choose_workers(key, function, workers)``
    places a delivery; its ``_invoke(worker, item, ctx, slate)`` runs the
    operator — ``map`` when ``slate`` is None, else ``on_timer`` /
    ``update`` — leaving outputs and timers in ``ctx``; its ``config_type``
    is the :class:`ThreadedConfig` built when none is given. ``store``
    defaults to one unreplicated in-process node.
    """

    def __init__(self, app: Application,
                 config: Optional[ThreadedConfig] = None,
                 store: Optional[ReplicatedKVStore] = None) -> None:
        app.validate()
        self.app = app
        self.config = config or self.config_type()
        self.store = store if store is not None else ReplicatedKVStore(
            node_names=["kv0"], replication_factor=1,
            clock=time.monotonic,  # noqa: MUP001 -- threaded engine: real kv timestamps/TTLs by design
        )
        self.counters = EventCounter()
        self.latency = LatencyRecorder()
        # The workflow, compiled once: operator -> route record, and sid ->
        # (sequencer, subscriber routes in operator-name order, external?),
        # through which stamping is inlined; an unknown sid, or an operator
        # publishing into an external stream, raises in the checked stamp().
        streams = self._streams = app.streams
        self._route_of: Dict[str, _Route] = {spec.name: _Route(
            spec.name, spec.instantiate(), spec.kind == "map", spec.publishes)
            for spec in app.operators()}
        self._stream_info: Dict[str, Tuple[Any, Tuple[_Route, ...], bool]] = {
            sid: (streams._seq[sid], tuple(self._route_of[spec.name] for spec
                                           in app.subscribers_of(sid)),
                  streams.spec(sid).external) for sid in streams.sids()}
        self._note_updates = (  # note_update() has work: a cap, write-through
            self.config.max_slate_bytes is not None
            or self.config.flush_policy.kind == "write_through")
        self._dispatch_lock = threading.Lock()
        self._workers, self.dispatcher = self._build_pool()
        #: Every slate manager the workers use (one shared, or one each),
        #: in worker order: what the flusher, stop() and the reads visit.
        self._managers: List[SlateManager] = list(dict.fromkeys(
            worker.manager for worker in self._workers))
        #: Deliveries queued or executing; drain() waits on ``_drained``
        #: (a condition over the dispatch lock) for it to reach zero.
        self._inflight = 0
        self._drained = threading.Condition(self._dispatch_lock)
        self._manager_lock = threading.Lock()
        self._slate_stripes: Tuple[Any, ...] = tuple(
            threading.Lock() for _ in range(SLATE_LOCK_STRIPES))
        self._timers: List[Tuple[float, int, TimerRequest, float]] = []
        self._timer_seq = itertools.count()
        self._timer_cond = threading.Condition(threading.Lock())
        #: Event-time watermark: the max source timestamp ingested so far
        #: (dispatch lock). Timers fire when it passes their ``at_ts``.
        self._watermark = float("-inf")
        self._threads: List[threading.Thread] = []
        self._running = False
        #: Set by stop(); the flusher sleeps on it, so stop() never waits.
        self._stopping = threading.Event()
        #: Operator invocations that raised; the event is logged as failed
        #: and the worker moves on (user code must not kill the engine).
        self.operator_errors = 0
        #: Flushes that skipped an unencodable slate (left dirty). The
        #: dispatch lock guards both counts and ``last_error``.
        self.flush_errors = 0
        self.last_error: Optional[BaseException] = None
        self.metrics = MetricsRegistry()
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Expose the engine's live stats objects through one registry.

        Everything here is a lazy view sampled at snapshot time; workers
        keep mutating their existing counters with zero added cost.
        """
        reg = self.metrics
        queues = [worker.queue for worker in self._workers]
        reg.register_group("counters", self.counters.snapshot)
        reg.register_view("dispatch", self.dispatcher.stats)
        reg.register_group("slates", lambda: {
            name: sum(getattr(manager.stats, name)
                      for manager in self._managers)
            for name in SlateManagerStats.__slots__})
        reg.register_group("queues", lambda: {
            "depth": sum(len(q) for q in queues),
            "peak": max(q.stats.peak_depth for q in queues),
            "rejected": sum(q.stats.rejected for q in queues),
        })
        reg.register_group("kv", lambda: {
            f"{name}.{key}": value
            for name, stats in self.store.stats_by_node().items()
            for key, value in stats.items()
        })
        reg.register_group("errors", lambda: {
            "operator_errors": self.operator_errors, "flush_errors": self.flush_errors})

    def metrics_snapshot(self) -> Dict[str, Any]:
        """One flat, sorted name->value reading of every registered stat."""
        return self.metrics.snapshot()

    def _new_manager(self, cache_capacity: int) -> SlateManager:
        cfg = self.config
        return SlateManager(
            self.store, cache_capacity, flush_policy=cfg.flush_policy,
            clock=time.monotonic,  # noqa: MUP001 -- threaded engine: real flush intervals by design
            max_slate_bytes=cfg.max_slate_bytes)

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "ThreadedEngine":
        """Spin up worker, timer, and background-flush threads."""
        if self._running:
            return self
        if self._stopping.is_set():
            raise EngineStoppedError("a stopped engine cannot be restarted")
        self._running = True
        for manager in self._managers:
            manager.start_interval()
        loops = [(self._worker_loop, (worker,), f"muppet-worker-{i}")
                 for i, worker in enumerate(self._workers)]
        loops += [(self._flusher_loop, (), "muppet-flusher"),
                  (self._timer_loop, (), "muppet-timer")]
        for target, args, name in loops:
            thread = threading.Thread(target=target, args=args, name=name, daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        """Stop all threads and flush remaining dirty slates."""
        if not self._running:
            return
        with self._dispatch_lock:
            self._running = False
            for worker in self._workers:
                worker.cond.notify()
        self._stopping.set()
        with self._timer_cond:
            self._timer_cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)
        for manager in self._managers:
            self._flush(manager)

    def __enter__(self) -> "ThreadedEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- ingestion --------------------------------------------------------------
    def ingest(self, event: Event, block: bool = True,
               timeout: float = 30.0) -> bool:  # hot-path
        """Feed one event of an external stream (the M0 role, Section 4.1).

        With the ``throttle`` overflow policy and ``block``, a full queue
        makes the source wait up to ``timeout`` seconds for space; otherwise
        it follows the drop/divert policy at once. Returns True if the event
        entered the system (fully or diverted), False if it was dropped.
        """
        if not self._running:
            raise EngineStoppedError("runtime is not running")
        info = self._stream_info.get(event[0])
        if info is None or not info[2]:
            self._streams.spec(event.sid)  # unknown stream: raises
            raise WorkflowError(
                f"ingest targets external streams only, got {event.sid!r}")
        # event.with_seq(...) and _WorkItem(...), one C allocation each.
        ts = event[1]
        stamped = _tuple_new(Event, (event[0], ts, event[2], event[3],
                                     next(info[0]), event[5], event[6]))
        birth = time.monotonic()  # noqa: MUP001 -- wall-clock latency birthstamp (threaded engine)
        items: List[_WorkItem] = []
        for route in info[1]:  # a loop: a comprehension is one more frame
            items.append(_tuple_new(_WorkItem, (stamped, route, birth, None)))
        with self._dispatch_lock:
            self.counters.published += 1
            advanced = ts > self._watermark
            if advanced:
                self._watermark = ts
            declined = self._place(items)
        if advanced and self._timers:  # else nothing waits for the watermark
            with self._timer_cond:
                self._timer_cond.notify_all()
        # A list, not a generator: every declined item gets its handling.
        return not declined or all(
            [self._overflow(item, block, timeout) for item in declined])

    def ingest_many(self, events, block: bool = True) -> int:
        """Feed a sequence of events; returns how many were accepted."""
        return sum(self.ingest(event, block=block) for event in events)

    # -- dispatch -----------------------------------------------------------------
    def _place(self, items: Iterable[_WorkItem]) -> List[_WorkItem]:  # hot-path
        """Offer each item to the queue two-choice dispatch picks, waking
        its worker if parked. The caller holds the dispatch lock and hands
        the returned declined items to :meth:`_overflow` after releasing."""
        declined: List[_WorkItem] = []
        workers, choose = self._workers, self.dispatcher.choose_workers
        for item in items:
            worker = choose(item[0][2], item[1][0], workers)
            if worker.queue.offer(item):
                self._inflight += 1
                if worker.parked:
                    worker.parked = False
                    worker.cond.notify()
            else:
                declined.append(item)
        return declined

    def _overflow(self, item: _WorkItem, from_source: bool = False,
                  timeout: float = 30.0, allow_divert: bool = True) -> bool:
        """Apply the overflow policy to an item its queue declined. Runs
        with no lock held: throttling sleeps, diverting dispatches."""
        policy = self.config.overflow
        if policy.kind == "divert" and allow_divert:
            diverted = self._streams.divert(item.event, policy.overflow_sid)
            items = [_WorkItem(diverted, route, item.birth)
                     for route in self._stream_info[diverted.sid][1]]
            with self._dispatch_lock:
                self.counters.diverted_overflow_stream += 1
                declined = self._place(items)
            # A diverted event that overflows again is dropped — degraded
            # service must not recurse into further diversion.
            for again in declined:
                self._overflow(again, allow_divert=False)
            return len(declined) < len(items)
        if policy.kind == "throttle" and allow_divert and from_source:
            deadline = time.monotonic() + timeout  # noqa: MUP001 -- real throttling deadline (threaded engine)
            while time.monotonic() < deadline:  # noqa: MUP001 -- real throttling deadline (threaded engine)
                time.sleep(THROTTLE_POLL_S)  # noqa: MUP001 -- source backpressure needs real waiting (threaded engine)
                with self._dispatch_lock:
                    self.counters.throttled += 1
                    if not self._place((item,)):
                        return True
        with self._dispatch_lock:
            self.counters.dropped_overflow += 1
        return False

    def drain(self, timeout: float = 60.0, flush_timers: bool = True) -> bool:
        """Block until every queued/in-flight event has been processed.

        With ``flush_timers`` (the default), any timers still pending once
        the queues empty are fired in timestamp order — end-of-stream
        semantics, so windowed applications (hot topics) emit their final
        windows when a bounded run finishes.
        """
        deadline = time.monotonic() + timeout  # noqa: MUP001 -- real drain deadline (threaded engine)
        while True:
            with self._drained:
                while self._inflight > 0:
                    remaining = deadline - time.monotonic()  # noqa: MUP001 -- real drain deadline (threaded engine)
                    if remaining <= 0:
                        return False
                    self._drained.wait(min(remaining, 0.1))
            with self._timer_cond:
                if not flush_timers or not self._timers:
                    return True
                _, __, timer, birth = heapq.heappop(self._timers)
            self._fire_timer(timer, birth)

    # -- workers ----------------------------------------------------------------
    def _worker_loop(self, worker: _Worker) -> None:  # hot-path
        process, counters = self._process, self.counters  # as instrumented
        item, error = None, None
        while True:
            # One hold: account for the delivery just made, take the next.
            with self._dispatch_lock:
                if item is not None:
                    if error is not None:
                        self.operator_errors += 1
                        self.last_error = error
                    else:
                        counters.processed += 1
                    self._inflight -= 1
                    if not self._inflight:
                        self._drained.notify_all()
                item = worker.queue.poll()
                while item is None:
                    worker.current = None
                    if not self._running:
                        return
                    worker.parked = True
                    worker.cond.wait()
                    item = worker.queue.poll()
                worker.current = (item[0][2], item[1][0])
            try:
                process(worker, item)
                error = None
            except Exception as exc:
                # A failing map/update costs one event, not the worker.
                error = exc

    def _process(self, worker: _Worker, item: _WorkItem) -> None:  # hot-path
        """Run one delivery, inlining what the simulator's compiled path
        does: stamping, allocation, the slate-cache hit, the slate touch."""
        event, route, birth, timer = item
        ts, key = event[1], event[2]
        ctx = _object_new(Context)  # Context(name, ts, publishes, key)
        ctx.operator, ctx.input_ts, ctx.input_key = route[0], ts, key
        ctx.now, ctx._output_sids = ts, route[3]
        ctx.emitted, ctx.timers = [], []
        if route[2]:
            self._invoke(worker, item, ctx, None)
        else:
            manager = worker.manager
            slate_key = _tuple_new(SlateKey, (route[0], key))
            slate_lock = self._slate_stripes[hash(slate_key) % SLATE_LOCK_STRIPES]
            with slate_lock:
                with self._manager_lock:
                    # SlateCache.get's hit; a miss or a TTL slate: get().
                    cache = manager.cache
                    slate = cache._slates.get(slate_key)
                    if slate is not None and slate.ttl is None:
                        cache._slates.move_to_end(slate_key)
                        cache.stats.hits += 1
                    else:
                        slate = manager.get(route[1], key)
                self._invoke(worker, item, ctx, slate)
                # slate.touch(ts): version bump, then the dirty transition.
                slate.last_update_ts = ts
                slate._version += 1
                if not slate._dirty:
                    slate._dirty = True
                    if slate._dirty_listener is not None:
                        slate._dirty_listener(slate, True)
                if cache._slates.get(slate_key) is not slate:
                    # Evicted mid-update by another worker's fetch: put it
                    # back (none refetched it: we hold its stripe) or lose it.
                    with self._manager_lock:
                        cache.put(slate)
                if self._note_updates:
                    with self._manager_lock:
                        manager.note_update(slate)
            if self.config.record_latency and timer is None:
                self.latency.record(time.monotonic() - birth)  # noqa: MUP001 -- wall-clock latency measurement (threaded engine)
        if ctx.emitted:
            outs: List[_WorkItem] = []
            for out in ctx.emitted:
                info = self._stream_info.get(out[0])
                if info is None or info[2]:
                    self._streams.stamp(out, from_operator=True)  # raises
                stamped = _tuple_new(Event, (out[0], out[1], out[2], out[3],
                                             next(info[0]), out[5], out[6]))
                for sub in info[1]:
                    outs.append(_tuple_new(_WorkItem, (stamped, sub, birth, None)))
            with self._dispatch_lock:
                self.counters.published += len(ctx.emitted)
                declined = self._place(outs)
            for late in declined:
                self._overflow(late)
        if ctx.timers:
            # Event-time timers: each fires when the watermark (the max
            # ingested source timestamp) passes its ``at_ts``.
            with self._timer_cond:
                for request in ctx.timers:
                    heapq.heappush(self._timers, (
                        request.at_ts, next(self._timer_seq), request, birth))
                self._timer_cond.notify_all()

    def _slate_lock(self, updater: str, key: str) -> Any:
        """The stripe guarding slate ``S(updater, key)``."""
        return self._slate_stripes[hash((updater, key)) % SLATE_LOCK_STRIPES]

    # -- timers -------------------------------------------------------------------
    def _fire_timer(self, timer: TimerRequest, birth: float) -> None:
        item = _WorkItem(timer.fired(), self._route_of[timer.updater], birth, timer)
        with self._dispatch_lock:
            declined = self._place((item,))
        if declined:
            self._overflow(item)

    def _timer_loop(self) -> None:
        while True:
            with self._timer_cond:
                if not self._running:
                    return
                # The watermark is read without its lock (one float, only
                # ever raised): ingest() notifies after raising it.
                if not self._timers or self._timers[0][0] > self._watermark:
                    self._timer_cond.wait(0.05)
                    continue
                _, __, timer, birth = heapq.heappop(self._timers)
            self._fire_timer(timer, birth)

    # -- background flush ---------------------------------------------------------
    def _flusher_loop(self) -> None:
        """The background kv-store I/O thread (Section 4.5): due flushes."""
        while not self._stopping.wait(self.config.flusher_period_s):
            for manager in self._managers:
                with self._manager_lock:
                    due = manager.take_due()
                if due:
                    self._flush(manager)

    def _flush(self, manager: SlateManager) -> None:
        """Write ``manager``'s dirty slates (a flusher tick, or stop()) in
        key order, :data:`FLUSH_CHUNK` at a time: encode each under its
        stripe, then the manager lock (an unencodable one stays dirty,
        counted); write those still resident and unchanged as one batch (no
        older blob after an eviction's); mark each clean if still that version."""
        with self._manager_lock:
            keys = sorted(manager.dirty_keys())
        errors: List[SlateError] = []
        for start in range(0, len(keys), FLUSH_CHUNK):
            snapshots: List[Snapshot] = []
            for slate_key in keys[start:start + FLUSH_CHUNK]:
                with self._slate_lock(*slate_key):
                    with self._manager_lock:
                        slate = manager.cache.peek(slate_key)
                        try:
                            if slate is not None and slate.dirty:
                                snapshots.append(manager.snapshot(slate))
                        except SlateError as exc:
                            errors.append(exc)
            with self._manager_lock:
                written = manager.write_snapshots([
                    snap for snap in snapshots
                    if manager.cache.peek(snap.slate.slate_key) is snap.slate
                    and snap.slate.version == snap.version])
            for slate, version, _ in written:
                with self._slate_lock(*slate.slate_key):
                    if slate.version == version:
                        slate.mark_clean()
        if errors:
            with self._dispatch_lock:
                self.flush_errors += len(errors)
                self.last_error = errors[-1]

    # -- reads -------------------------------------------------------------------
    def read_slate(self, updater: str, key: str) -> Optional[Dict[str, Any]]:
        """Read a slate's current contents from the cache (fresh), else
        the store — the Section 4.4 slate-fetch semantics. The cached slate
        is copied under its lock: never observed mid-``update()``."""
        cached = self._peek(updater, key)
        if cached is not None:
            return cached
        try:
            value = self.store.read(key, updater).value
        except StoreError:
            return None
        return None if value is None else DEFAULT_CODEC.decode(value)

    def read_slates_of(self, updater: str) -> Dict[str, Dict[str, Any]]:
        """All cached slates of one updater, in sorted key order."""
        with self._manager_lock:
            keys = sorted(slate_key.key for manager in self._managers
                          for slate_key in manager.cache.resident()
                          if slate_key.updater == updater)
        found = ((key, self._peek(updater, key)) for key in keys)
        return {key: fields for key, fields in found if fields is not None}

    def _peek(self, updater: str, key: str) -> Optional[Dict[str, Any]]:
        slate_key = SlateKey(updater, key)
        with self._slate_lock(updater, key):
            with self._manager_lock:
                for manager in self._managers:
                    slate = manager.cache.peek(slate_key)
                    if slate is not None:
                        return slate.as_dict()
        return None

    def status(self) -> Dict[str, Any]:
        """Queue depths and counters (Section 4.5's HTTP status endpoint
        exposes "the event count of the largest event queues")."""
        with self._dispatch_lock:
            depths = [len(worker.queue) for worker in self._workers]
            counters = self.counters.snapshot()
        return {"queues": depths, "largest_queue": max(depths),
                "counters": counters, "threads": len(depths),
                "running": self._running}


class LocalMuppet(ThreadedEngine):
    """The Muppet 2.0 layout: a pool of workers that each run any function,
    over one shared operator instance per function and one slate manager
    (``manager``), placed by two-choice dispatch. Typical use (``start()``
    and ``stop()`` do what the ``with`` block does)::

        with LocalMuppet(app, LocalConfig(num_threads=4)) as runtime:
            for event in events:
                runtime.ingest(event)
            runtime.drain()
            counts = runtime.read_slate("U1", "walmart")
    """

    config_type = LocalConfig

    def _build_pool(self) -> Tuple[List[_Worker], TwoChoiceDispatcher]:
        cfg = self.config
        self.manager = self._new_manager(CACHE_SLATES)
        workers = [_Worker(cfg.queue_capacity, self._dispatch_lock,
                           self.manager) for _ in range(cfg.num_threads)]
        return workers, TwoChoiceDispatcher(cfg.num_threads)

    def _invoke(self, worker: _Worker, item: _WorkItem, ctx: Context,
                slate: Optional[Slate]) -> None:
        event, route, _, timer = item
        instance = route.instance
        if slate is None:
            instance.map(ctx, event)
        elif timer is not None:
            instance.on_timer(ctx, event.key, slate, timer.payload)
        else:
            instance.update(ctx, event, slate)
