"""The real-thread, single-machine Muppet engine and its 2.0 worker layout.

Where :mod:`repro.sim` reproduces cluster-scale behaviour under a virtual
clock, this module is Muppet on one actual machine, with actual threads.
It powers the runnable examples and the wall-clock pytest benchmarks.

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
from repro.errors import (ConfigurationError, EngineStoppedError, StoreError,
                          WorkflowError)
from repro.kvstore.cluster import ReplicatedKVStore
from repro.muppet.dispatch import KeyFn, TwoChoiceDispatcher
from repro.muppet.queues import BoundedQueue, OverflowPolicy
from repro.obs import LatencyRecorder, MetricsRegistry
from repro.slates.manager import (FlushPolicy, SlateManager,
                                  SlateManagerStats)

#: Slate locks are a fixed array indexed by ``hash((updater, key))``: nothing
#: to register or leak, and two slates sharing a stripe merely take turns.
SLATE_LOCK_STRIPES = 256

#: Slates a machine keeps resident: one cache in the 2.0 layout, split
#: evenly over the workers' private caches in the 1.0 layout.
CACHE_SLATES = 100_000

#: How long a throttled source sleeps between retries when its target
#: queue is full (the block-the-source overflow policy).
THROTTLE_POLL_S = 0.001


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

    def __init__(self, capacity: int, lock: Any,
                 manager: SlateManager) -> None:
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
        # The workflow, compiled once: operator -> route record, and
        # stream -> its subscribers' routes in operator-name order.
        self._streams = app.streams
        self._route_of: Dict[str, _Route] = {
            spec.name: _Route(spec.name, spec.instantiate(),
                              spec.kind == "map", spec.publishes)
            for spec in app.operators()
        }
        self._routes: Dict[str, Tuple[_Route, ...]] = {
            sid: tuple(self._route_of[spec.name]
                       for spec in app.subscribers_of(sid))
            for sid in app.streams.sids()
        }
        self._source_routes = {sid: self._routes[sid]
                               for sid in app.streams.external_sids()}
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
        reg.register_group(
            "errors", lambda: {"operator_errors": self.operator_errors})

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
        loops = [(self._worker_loop, (worker,), f"muppet-worker-{i}")
                 for i, worker in enumerate(self._workers)]
        loops.append((self._flusher_loop, (), "muppet-flusher"))
        loops.append((self._timer_loop, (), "muppet-timer"))
        for target, args, name in loops:
            thread = threading.Thread(target=target, args=args, name=name,
                                      daemon=True)
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
        with self._manager_lock:
            for manager in self._managers:
                manager.flush_all_dirty()

    def __enter__(self) -> "ThreadedEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- ingestion --------------------------------------------------------------
    def ingest(self, event: Event, block: bool = True,
               timeout: float = 30.0) -> bool:
        """Feed one external event (the M0 role, Section 4.1).

        Args:
            event: Must target an external stream of the application.
            block: With the ``throttle`` overflow policy, wait for queue
                space (source throttling); otherwise full queues follow
                the drop/divert policy immediately.
            timeout: Max seconds to wait when blocking.

        Returns:
            True if the event entered the system (fully or diverted);
            False if it was dropped.
        """
        if not self._running:
            raise EngineStoppedError("runtime is not running")
        routes = self._source_routes.get(event.sid)
        if routes is None:
            self._streams.spec(event.sid)  # unknown stream: raises
            raise WorkflowError(
                f"ingest targets external streams only, got {event.sid!r}")
        stamped = self._streams.stamp(event)
        birth = time.monotonic()  # noqa: MUP001 -- wall-clock latency birthstamp (threaded engine)
        items = [_WorkItem(stamped, route, birth) for route in routes]
        with self._dispatch_lock:
            self.counters.published += 1
            advanced = stamped.ts > self._watermark
            if advanced:
                self._watermark = stamped.ts
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
    def _place(self, items: Iterable[_WorkItem]) -> List[_WorkItem]:
        """Offer each item to the queue two-choice dispatch picks, waking
        its worker if parked. The caller holds the dispatch lock and hands
        the returned declined items to :meth:`_overflow` after releasing."""
        declined: List[_WorkItem] = []
        workers = self._workers
        for item in items:
            worker = self.dispatcher.choose_workers(
                item.event.key, item.route.name, workers)
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
                     for route in self._routes[diverted.sid]]
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
                with self._dispatch_lock:
                    self.counters.throttled += 1
                time.sleep(THROTTLE_POLL_S)  # noqa: MUP001 -- source backpressure needs real waiting (threaded engine)
                with self._dispatch_lock:
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
    def _worker_loop(self, worker: _Worker) -> None:
        item, error = None, None
        while True:
            # One hold: account for the delivery just made, take the next.
            with self._dispatch_lock:
                if item is not None:
                    if error is not None:
                        self.operator_errors += 1
                        self.last_error = error
                    else:
                        self.counters.processed += 1
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
                worker.current = (item.event.key, item.route.name)
            try:
                self._process(worker, item)
                error = None
            except Exception as exc:
                # A failing map/update costs one event, not the worker.
                error = exc

    def _process(self, worker: _Worker, item: _WorkItem) -> None:
        """Run one delivery."""
        event, route, birth, timer = item
        ctx = Context(route.name, event.ts, route.publishes, event.key)
        if route.is_map:
            self._invoke(worker, item, ctx, None)
        else:
            manager = worker.manager
            with self._slate_lock(route.name, event.key):
                with self._manager_lock:
                    slate = manager.get(route.instance, event.key)
                self._invoke(worker, item, ctx, slate)
                slate.touch(event.ts)
                with self._manager_lock:
                    manager.note_update(slate)
            if self.config.record_latency and timer is None:
                self.latency.record(time.monotonic() - birth)  # noqa: MUP001 -- wall-clock latency measurement (threaded engine)
        if ctx.emitted:
            outs: List[_WorkItem] = []
            for out in ctx.emitted:
                stamped = self._streams.stamp(out, from_operator=True)
                for sub in self._routes[stamped.sid]:
                    outs.append(_WorkItem(stamped, sub, birth))
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
        item = _WorkItem(timer.fired(), self._route_of[timer.updater], birth,
                         timer)
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
        """The background kv-store I/O thread (Section 4.5).

        Each slate is encoded under its own lock (then the manager lock,
        the canonical order) so a worker running ``update()`` on it can
        never mutate its fields mid-encode — field mutation happens under
        slate locks in :meth:`_process`, not the manager lock. Keys are
        flushed in sorted order: the kv write sequence is key-deterministic.
        """
        while not self._stopping.wait(self.config.flusher_period_s):
            for manager in self._managers:
                with self._manager_lock:
                    if not manager.due():
                        continue
                    manager.mark_interval_flushed()
                    dirty = sorted(manager.dirty_keys())
                for slate_key in dirty:
                    with self._slate_lock(slate_key.updater, slate_key.key):
                        with self._manager_lock:
                            manager.flush_one(slate_key)

    # -- reads -------------------------------------------------------------------
    def read_slate(self, updater: str, key: str) -> Optional[Dict[str, Any]]:
        """Read a slate's current contents from the cache (fresh), else
        the store — the Section 4.4 slate-fetch semantics.

        Snapshots the slate under its lock so a concurrent ``update()``
        can never be observed mid-mutation.
        """
        cached = self._peek(updater, key)
        if cached is not None:
            return cached
        try:
            result = self.store.read(key, updater)
        except StoreError:
            return None
        if result.value is None:
            return None
        return self._managers[0].codec.decode(result.value)

    def read_slates_of(self, updater: str) -> Dict[str, Dict[str, Any]]:
        """All cached slates of one updater, in sorted key order."""
        with self._manager_lock:
            keys = sorted(slate_key.key
                          for manager in self._managers
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
