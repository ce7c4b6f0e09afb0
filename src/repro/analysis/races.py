"""Dynamic lockset race detection for the threaded engine.

:class:`repro.muppet.local.ThreadedEngine` (``LocalMuppet`` and
``LocalMuppet1`` are its two worker layouts) is the one component the
virtual-clock determinism gate cannot cover — it runs real threads, so
its bugs are schedules, not states. This module instruments a runtime
*before* it starts: every engine lock is wrapped in a
:class:`TrackedLock`, and the shared state the workers/flusher/timer
threads touch (slates, counters, the worker records) is shimmed to
report each access to a :class:`LockMonitor`.

Two detectors run over the recording:

* **Eraser-style lockset** (Savage et al.): each shared-state name
  carries a candidate set of locks, intersected with the locks held at
  every access. If the candidate set empties while ≥2 threads and ≥1
  write were seen, no single lock protected that state — a data race,
  reported with the conflicting threads, their stacks, and the locks
  each held.
* **Lock-order graph**: every nested acquisition adds a ``held →
  acquired`` edge; a cycle means two schedules can deadlock even if no
  run has yet. The static twin of this check is lint rule MUP008.

Everything here is opt-in diagnostics: an uninstrumented runtime pays
nothing, an instrumented one serializes through the monitor and is
expected to be slow.

Typical use (also wired as ``python -m repro analyze races``)::

    runtime = LocalMuppet(app, LocalConfig(num_threads=4))
    monitor = instrument_local_muppet(runtime)
    with runtime:
        runtime.ingest_many(events)
        runtime.drain()
        monitor.stop_recording()
    for race in monitor.races():
        print(race.format())
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import AnalysisError

__all__ = [
    "LockMonitor",
    "RaceReport",
    "TrackedLock",
    "instrument_local_muppet",
    "race_smoke_run",
]


@dataclass(frozen=True)
class _AccessSample:
    """One recorded access to a shared state (stack captured lazily)."""

    thread: str
    kind: str  # "read" | "write"
    locks: Tuple[str, ...]
    stack: str


@dataclass(frozen=True)
class RaceReport:
    """One lockset violation: no common lock across all accesses."""

    state: str
    threads: Tuple[str, ...]
    samples: Tuple[_AccessSample, ...]

    def format(self) -> str:
        lines = [f"RACE on {self.state}: no common lock across "
                 f"{len(self.threads)} threads ({', '.join(self.threads)})"]
        for sample in self.samples:
            held = ", ".join(sample.locks) if sample.locks else "<none>"
            lines.append(f"  {sample.kind} by {sample.thread} "
                         f"holding [{held}]")
            for frame in sample.stack.rstrip().splitlines():
                lines.append(f"    {frame}")
        return "\n".join(lines)


class LockMonitor:
    """Records lock events and shared-state accesses from many threads.

    Thread-safe via one internal (untracked) lock. Recording stops at
    :meth:`stop_recording` — call it before engine teardown so
    post-join cleanup (``stop()``'s final flush) is not recorded.
    """

    #: Max distinct access samples kept per state (enough to show the
    #: conflicting pair plus context without unbounded growth).
    MAX_SAMPLES = 6

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._recording = True
        #: thread ident -> stack of currently held TrackedLocks.
        self._held: Dict[int, List["TrackedLock"]] = {}
        #: state name -> candidate lockset (None until first access).
        self._lockset: Dict[str, FrozenSet[str]] = {}
        self._state_threads: Dict[str, Set[str]] = {}
        self._state_writes: Dict[str, bool] = {}
        self._samples: Dict[str, List[_AccessSample]] = {}
        self._sampled: Set[Tuple[str, str, Tuple[str, ...], str]] = set()
        self._raced: Set[str] = set()
        #: (held group, acquired group) -> sample stack.
        self._order_edges: Dict[Tuple[str, str], str] = {}
        self.acquisitions = 0
        self.accesses = 0

    # -- recording hooks (called by TrackedLock and the shims) --------------
    def on_acquire(self, lock: "TrackedLock") -> None:
        ident = threading.get_ident()
        with self._lock:
            if not self._recording:
                return
            self.acquisitions += 1
            held = self._held.setdefault(ident, [])
            for prior in held:
                if prior is lock:
                    continue
                edge = (prior.group, lock.group)
                if edge[0] != edge[1] and edge not in self._order_edges:
                    self._order_edges[edge] = "".join(
                        traceback.format_stack(limit=10))
            held.append(lock)

    def on_release(self, lock: "TrackedLock") -> None:
        ident = threading.get_ident()
        with self._lock:
            held = self._held.get(ident)
            if held is None:
                return
            # Remove the most recent occurrence (locks are non-reentrant
            # but distinct slate locks share a group).
            for i in range(len(held) - 1, -1, -1):
                if held[i] is lock:
                    del held[i]
                    break

    def record_access(self, state: str, kind: str = "write") -> None:
        """Apply the lockset algorithm to one access of ``state``."""
        ident = threading.get_ident()
        thread = threading.current_thread().name
        with self._lock:
            if not self._recording:
                return
            self.accesses += 1
            held = frozenset(lock.name for lock in self._held.get(ident, ()))
            previous = self._lockset.get(state)
            self._lockset[state] = (held if previous is None
                                    else previous & held)
            self._state_threads.setdefault(state, set()).add(thread)
            if kind == "write":
                self._state_writes[state] = True
            # Stack capture is the expensive part; only sample each
            # distinct (thread, lockset, kind) once per state.
            sample_key = (state, thread, tuple(sorted(held)), kind)
            samples = self._samples.setdefault(state, [])
            if (sample_key not in self._sampled
                    and len(samples) < self.MAX_SAMPLES):
                self._sampled.add(sample_key)
                samples.append(_AccessSample(
                    thread=thread, kind=kind, locks=tuple(sorted(held)),
                    stack="".join(traceback.format_stack(limit=8))))
            if (not self._lockset[state]
                    and len(self._state_threads[state]) >= 2
                    and self._state_writes.get(state, False)):
                self._raced.add(state)

    def stop_recording(self) -> None:
        """Freeze the recording (teardown accesses are ignored)."""
        with self._lock:
            self._recording = False

    # -- reports -------------------------------------------------------------
    def races(self) -> List[RaceReport]:
        """All states whose candidate lockset emptied under contention."""
        with self._lock:
            reports = []
            for state in sorted(self._raced):
                reports.append(RaceReport(
                    state=state,
                    threads=tuple(sorted(self._state_threads[state])),
                    samples=tuple(self._samples.get(state, ())),
                ))
            return reports

    def ordering_cycles(self) -> List[List[str]]:
        """Cycles in the lock-order graph (potential deadlocks)."""
        with self._lock:
            edges: Dict[str, Set[str]] = {}
            for src, dst in self._order_edges:
                edges.setdefault(src, set()).add(dst)
        cycles: List[List[str]] = []
        seen_cycles: Set[Tuple[str, ...]] = set()

        def visit(node: str, path: List[str], on_path: Set[str]) -> None:
            for nxt in sorted(edges.get(node, ())):
                if nxt in on_path:
                    cycle = path[path.index(nxt):] + [nxt]
                    # Canonicalize so each cycle reports once.
                    pivot = min(range(len(cycle) - 1),
                                key=lambda i: cycle[i])
                    canon = tuple(cycle[pivot:-1] + cycle[:pivot])
                    if canon not in seen_cycles:
                        seen_cycles.add(canon)
                        cycles.append(cycle)
                    continue
                visit(nxt, path + [nxt], on_path | {nxt})

        for start in sorted(edges):
            visit(start, [start], {start})
        return cycles

    def report(self) -> str:
        """Human-readable summary of both detectors."""
        races = self.races()
        cycles = self.ordering_cycles()
        lines = [f"lock acquisitions: {self.acquisitions}, "
                 f"state accesses: {self.accesses}"]
        if not races and not cycles:
            lines.append("no data races, no lock-order cycles")
        for race in races:
            lines.append(race.format())
        for cycle in cycles:
            lines.append("LOCK-ORDER CYCLE: " + " -> ".join(cycle))
        return "\n".join(lines)


class TrackedLock:
    """A non-reentrant lock that reports acquire/release to a monitor.

    ``group`` names the lock's role in the order graph; distinct
    per-slate locks all share the group ``"slate"`` so the graph stays
    small and order edges aggregate by role.
    """

    def __init__(self, name: str, monitor: LockMonitor,
                 group: Optional[str] = None) -> None:
        self.name = name
        self.group = group if group is not None else name
        self._monitor = monitor
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._monitor.on_acquire(self)
        return acquired

    def release(self) -> None:
        self._monitor.on_release(self)
        self._lock.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class _MonitoredFields:
    """Attribute proxy over a shared record (the EventCounter, a worker
    record), reporting each field access as ``<name>.<field>``. With
    ``only``, the other fields are write-once and read through unreported."""

    __slots__ = ("_target", "_monitor", "_name", "_only")

    def __init__(self, target: Any, monitor: LockMonitor, name: str,
                 only: Optional[Tuple[str, ...]] = None) -> None:
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_monitor", monitor)
        object.__setattr__(self, "_name", name)
        object.__setattr__(self, "_only", only)

    # The four slots resolve by normal lookup; __getattr__ only sees
    # the target's fields.
    def __getattr__(self, field: str) -> Any:
        value = getattr(self._target, field)
        if not callable(value) and (self._only is None
                                    or field in self._only):
            self._monitor.record_access(f"{self._name}.{field}", "read")
        return value

    def __setattr__(self, field: str, value: Any) -> None:
        self._monitor.record_access(f"{self._name}.{field}", "write")
        setattr(self._target, field, value)


def instrument_local_muppet(runtime: Any,
                            monitor: Optional[LockMonitor] = None
                            ) -> LockMonitor:
    """Swap a threaded engine's locks and shared state for tracked shims
    (either worker layout).

    Must run before ``runtime.start()`` — each worker thread is handed
    its worker record at start. Returns the monitor (a fresh one if none
    was given). The instrumented runtime behaves identically, slower.
    """
    if getattr(runtime, "_running", False):
        raise AnalysisError(
            "instrument_local_muppet must run before runtime.start(); "
            "worker threads bind the original records once started")
    mon = monitor if monitor is not None else LockMonitor()

    # 1. The engine locks: dispatch (with the drain condition and every
    #    worker's own condition rebuilt over it), manager, timer.
    dispatch = TrackedLock("dispatch", mon)
    runtime._dispatch_lock = dispatch
    runtime._drained = threading.Condition(dispatch)
    runtime._manager_lock = TrackedLock("manager", mon)
    runtime._timer_cond = threading.Condition(TrackedLock("timer", mon))

    # 2. The slate stripes: one order-graph group, a lock per stripe.
    runtime._slate_stripes = tuple(
        TrackedLock(f"slate[{stripe}]", mon, group="slate")
        for stripe in range(len(runtime._slate_stripes)))

    # 3. Shared state: the counters and the worker records (queue,
    #    current, parked) the dispatcher and the pool threads read and
    #    write; a record's other fields (its manager, a 1.0 worker's
    #    pipe) are set once and read with no lock. Latency samples are
    #    appended unlocked (atomic append).
    runtime.counters = _MonitoredFields(runtime.counters, mon, "counters")
    for index, worker in enumerate(runtime._workers):
        worker.cond = threading.Condition(dispatch)
        runtime._workers[index] = _MonitoredFields(
            worker, mon, f"worker[{index}]",
            only=("queue", "current", "cond", "parked"))

    # 4. Slate field accesses. Writes happen inside the operator call
    #    the layout's _invoke() makes (under the slate's stripe); every
    #    flush encodes through its manager's snapshot(), a read of the
    #    same fields. Recording both lets the lockset algorithm see
    #    whether any one lock covers slate mutation.
    invoke = runtime._invoke

    def _tracked_invoke(worker: Any, item: Any, ctx: Any, slate: Any) -> None:
        if slate is not None:
            mon.record_access(
                f"slate:{item.route.name}/{item.event.key}", "write")
        invoke(worker, item, ctx, slate)

    runtime._invoke = _tracked_invoke
    for manager in runtime._managers:
        _track_snapshots(manager, mon)
    return mon


def _track_snapshots(manager: Any, mon: LockMonitor) -> None:
    """Record a slate read wherever a flush encodes a slate."""
    snapshot = manager.snapshot

    def _tracked_snapshot(slate: Any) -> Any:
        mon.record_access(
            f"slate:{slate.slate_key.updater}/{slate.slate_key.key}", "read")
        return snapshot(slate)

    manager.snapshot = _tracked_snapshot


# -- the CI smoke run ---------------------------------------------------------
#: The smoke run's flush interval: short, so the flusher contends with
#: the workers.
SMOKE_FLUSH_EVERY_S = 0.02
#: How long the smoke run waits for the flushers to write what the run
#: left dirty.
FLUSHED_TIMEOUT_S = 5.0


def race_smoke_run(events: int = 2000, threads: int = 4,
                   keys: int = 16) -> LockMonitor:
    """Run both worker layouts, instrumented, under churn; return the
    monitor they share.

    The workload is tuned to exercise every lock pair: many keys (slate
    lock contention), a short flush interval (flusher vs. worker), and
    enough events that the two-choice dispatcher routes one key to two
    workers. CI asserts the result is race- and cycle-free.
    """
    from repro.apps.counting import count_app
    from repro.core.event import Event
    from repro.muppet.local import LocalConfig, LocalMuppet
    from repro.muppet.local1 import Local1Config, LocalMuppet1
    from repro.slates.manager import FlushPolicy

    flushing = dict(flush_policy=FlushPolicy.every(SMOKE_FLUSH_EVERY_S),
                    flusher_period_s=SMOKE_FLUSH_EVERY_S / 2)
    pool = LocalMuppet(count_app("race-smoke"),
                       LocalConfig(num_threads=threads, **flushing))
    per_function = LocalMuppet1(count_app("race-smoke"), Local1Config(
        workers_per_function=max(1, threads // 2), **flushing))
    monitor = LockMonitor()
    for runtime in (pool, per_function):
        instrument_local_muppet(runtime, monitor)
    # Both stay up until recording stops, and until their flushers wrote
    # what the run left dirty: the flusher's encodes are recorded too.
    with pool, per_function:
        for runtime in (pool, per_function):
            for i in range(events):
                runtime.ingest(Event("S1", ts=i * 0.001, key=f"k{i % keys}",
                                     value=i))
            runtime.drain()
        _await_flushed((pool, per_function))
        monitor.stop_recording()
    return monitor


def _await_flushed(runtimes: Any) -> bool:
    """Wait until no manager of ``runtimes`` holds a dirty slate (their
    flushers caught up); False if ``FLUSHED_TIMEOUT_S`` passed first."""
    deadline = time.monotonic() + FLUSHED_TIMEOUT_S
    while any(manager.cache.dirty_count() for runtime in runtimes
              for manager in runtime._managers):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True
