"""SimRuntime: Muppet 1.0 / 2.0 on a simulated cluster (Sections 4, 5).

This is the substitution substrate declared in DESIGN.md: the authors ran
Muppet on a physical cluster of tens of machines; we run the *same
application code* on a discrete-event simulation of such a cluster. Every
map/update invocation actually executes (slates really change), while CPU,
network, and storage time are charged from :class:`~repro.sim.costs.
CostModel`, :class:`~repro.cluster.topology.NetworkSpec`, and the kv-store
device models.

Both engines are implemented on the same scaffolding, differing exactly
where the paper says they differ (Section 4.5):

* **Muppet 1.0** — one worker *process* per (function, machine) slot; each
  worker owns a private slate manager (fragmented caches) and its own copy
  of the operator code; every event pays conductor↔task-processor IPC;
  routing hashes ``<key, function>`` straight to the one owning worker.
* **Muppet 2.0** — a thread pool per machine; any thread runs any
  function; one central slate manager and one shared operator instance per
  machine; incoming events go through the primary/secondary two-choice
  dispatcher; a background I/O thread flushes dirty slates.

Failures follow Section 4.3: senders discover dead machines on contact,
report to the master, and the master broadcast excludes the machine from
the shared hash ring; in-flight and queued events on the dead machine are
lost and counted. Queue overflow follows Sections 4.3/5: drop, divert to an
overflow stream, or source-throttle.

Beyond the paper (which leaves recovery "until operator intervention"),
``failures`` also accepts a :class:`repro.faults.FaultSchedule`: a seeded
chaos schedule of crashes, crash-then-recover cycles, network partitions,
gray slow-node failures, probabilistic message drop/delay, and kv-node
outages. Recovery is a full path — master recovery broadcast, ring
re-admission behind a rebalance barrier, lazy slate re-hydration from the
replicated kv-store, and hinted-handoff drain to the revived kv node —
with every step counted in :class:`repro.metrics.RobustnessCounters`.
"""

from __future__ import annotations

import gc
import itertools
from collections import deque
from dataclasses import asdict, dataclass, field
from heapq import heappush
from typing import (Any, Deque, Dict, Iterable, List, Optional, Set, Tuple,
                    Union)

from repro.cluster.hashring import HashRing, route_key
from repro.cluster.topology import ClusterSpec, NetworkSpec
from repro.core.application import Application, OperatorSpec
from repro.core.event import Event, EventCounter, derive_origin
from repro.core.operators import Context, Operator, TimerRequest
from repro.core.slate import Slate, SlateKey, _json_size_fast
from repro.elastic import (Autoscaler, AutoscalerConfig, MigrationConfig,
                           MigrationCoordinator, MigrationState,
                           ScaleDecision)
from repro.errors import ConfigurationError, SimulationError
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.kvstore.api import ConsistencyLevel
from repro.kvstore.cluster import ReplicatedKVStore
from repro.metrics import (DataPlaneCounters, LatencyRecorder,
                           LatencySummary, RobustnessCounters,
                           ThroughputReport, percentile)
from repro.muppet.dispatch import SingleChoiceDispatcher, TwoChoiceDispatcher
from repro.muppet.master import Master
from repro.obs import MetricsRegistry, RingTracer, TimelineRecorder, Tracer
from repro.muppet.conductor import IPCAccountant
from repro.muppet.queues import BoundedQueue, OverflowPolicy, SourceThrottle
from repro.muppet.replay import ReplayStats
from repro.shedding.controller import (TIER_OVERFLOW, TIER_THIN,
                                       TIER_THROTTLE, BackpressureController,
                                       PressureSignals, SheddingConfig,
                                       SheddingCounters)
from repro.shedding.thinning import Thinner
from repro.sim.costs import CostModel
from repro.sim.des import ScheduledEvent, Simulator
from repro.sim.sources import Source
from repro.slates.manager import FlushPolicy, RetryPolicy, SlateManager

ENGINE_MUPPET1 = "muppet1"
ENGINE_MUPPET2 = "muppet2"

#: Wholesale-clear bound for the per-event path's memo tables (mirrors
#: the hashring memo discipline: bounded table, cleared when full).
_MEMO_MAX = 65_536

#: Resident size of one loaded copy of the application code (MB); the
#: Muppet 1.0 memory penalty is one copy per worker process.
OPERATOR_CODE_MB = 64.0

#: How often a paused source looks at its throttle again, and the throttle
#: monitor at the queues (simulated seconds).
THROTTLE_CHECK_S = 0.01


@dataclass
class SimConfig:
    """Tunable knobs of a simulated Muppet deployment.

    Attributes mirror the paper's configuration surface: engine version,
    queue limits and overflow policy, slate cache size and flush interval,
    kv-store consistency/replication, and the Muppet 1.0 worker layout
    versus the Muppet 2.0 thread pool.
    """

    engine: str = ENGINE_MUPPET2
    queue_capacity: int = 5_000
    overflow: OverflowPolicy = field(default_factory=OverflowPolicy.drop)
    costs: CostModel = field(default_factory=CostModel)
    cache_slates_per_machine: int = 100_000
    flush_policy: FlushPolicy = field(default_factory=lambda: FlushPolicy.every(1.0))
    consistency: ConsistencyLevel = ConsistencyLevel.ONE
    kv_replication: int = 3
    kv_memtable_flush_bytes: int = 4 * 1024 * 1024
    #: Muppet 1.0: worker processes per function per machine.
    workers_per_function_per_machine: int = 1
    #: Muppet 1.0: per-function overrides of the above (e.g. Figure 2's
    #: three mappers and two updaters: ``{"M1": 3, "U1": 2}``).
    workers_per_function: Optional[Dict[str, int]] = None
    #: Muppet 2.0: use the primary/secondary two-choice dispatcher
    #: (Section 4.5). False falls back to single-owner hashing — the
    #: ablation knob for bench E4.
    two_choice: bool = True
    #: Muppet 2.0: worker threads per machine (default: the core count,
    #: "as large as the parallelization of the application code allows").
    threads_per_machine: Optional[int] = None
    #: Updater names at which end-to-end latency is recorded (None = all).
    latency_sinks: Optional[Set[str]] = None
    throttle: Optional[SourceThrottle] = None
    retry_delay_s: float = 0.01
    flusher_period_s: float = 0.1
    max_slate_bytes: Optional[int] = None
    #: Kill the co-located kv node when a machine fails (the paper keeps
    #: Cassandra on a separate cluster, so the default is False).
    kill_kv_on_machine_failure: bool = False
    #: Event replay horizon in seconds — the Section 4.3 future-work
    #: extension (see :mod:`repro.muppet.replay`). ``None`` disables
    #: replay (the paper's production behaviour: lost and logged).
    #: Setting it implies ``delivery_semantics="at-least-once"``.
    replay_horizon_s: Optional[float] = None
    #: What the engine promises about each event's effect on slates:
    #:
    #: * ``"at-most-once"`` — the paper's production behaviour: events
    #:   lost to failures stay lost (bounded under-count).
    #: * ``"at-least-once"`` — sender-side replay journal with a time
    #:   horizon (``replay_horizon_s``); crashes can replay events the
    #:   dead machine already processed (bounded over-count).
    #: * ``"effectively-once"`` — at-least-once replay made idempotent:
    #:   every event carries replay-stable provenance, every slate keeps
    #:   per-upstream dedup watermarks persisted atomically with its
    #:   fields, and the journal is pruned at coordinated checkpoint
    #:   epochs (``checkpoint_epoch_s``) instead of by time. Crash plus
    #:   recover yields exact counts for deterministic workflows.
    delivery_semantics: str = "at-most-once"
    #: Master-side liveness sweep period (opt-in failure detection).
    #: The engine's built-in detection is sender-side (Section 4.3): a
    #: dead machine is only noticed when someone sends to it. A crash
    #: during a *quiet window* — no traffic addressed to the victim
    #: before it recovers — is therefore never declared, its journaled
    #: events are never replayed, and dirty slate state that died with
    #: its caches silently degrades exactness (the model checker's
    #: ``epoch`` counterexample). With a period set, the master sweeps
    #: machine liveness every ``heartbeat_s`` seconds and declares any
    #: down, undeclared machine failed — exclusion, broadcast, journal
    #: replay — exactly as sender-side detection would. ``None`` (the
    #: default) keeps the paper's behaviour and adds no simulator
    #: events, so prior runs stay byte-identical.
    heartbeat_s: Optional[float] = None
    #: Period of the effectively-once checkpoint barrier: flush every
    #: dirty slate (with its watermarks) cluster-wide, then prune every
    #: journal entry old enough that its effect is durably covered.
    #: Soundness needs delivery + queueing latency under one period.
    checkpoint_epoch_s: float = 1.0
    #: Retry/backoff/fail-open policy for slate-manager kv operations
    #: (see :class:`repro.slates.manager.RetryPolicy`). The default
    #: retries transient store errors with exponential backoff and then
    #: degrades (counted) instead of raising into operator code.
    kv_retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Data-plane batching: coalesce up to this many events per
    #: (source machine, destination machine) link into one network
    #: envelope, paying the per-message latency once and the payload
    #: bandwidth for the combined bytes. 0 (the default) disables
    #: batching — every event ships alone, the pre-batching behaviour.
    batch_max_events: int = 0
    #: How long a partially-filled batch may linger before it is
    #: shipped anyway. Only meaningful with ``batch_max_events > 0``;
    #: 0 coalesces only events sent at the same simulated instant.
    batch_linger_s: float = 0.0
    #: Memoize routing-hash lookups (machine ring, function rings, and
    #: the per-machine dispatchers). On by default; off recomputes every
    #: blake2b digest per event — the perf-gate/determinism ablation.
    memoize_routing: bool = True
    #: Group dirty slates into multi-cell kv batch writes per flush
    #: cycle. On by default; off writes one kv cell per slate.
    coalesce_slate_flushes: bool = True
    #: Opt-in structured event tracing (see :mod:`repro.obs.trace`).
    #: Off by default: the engine then holds no tracer at all and every
    #: emission site is one ``is not None`` check — the measured-zero-
    #: overhead no-op path gated by ``bench_obs_overhead.py``. On, spans
    #: land in an in-memory ring (or a sink passed to ``SimRuntime``).
    trace: bool = False
    #: Ring capacity for the default in-memory trace sink.
    trace_capacity: int = 65_536
    #: Record per-machine queue/dirty-slate and per-updater latency
    #: timeseries, sampled on the existing flusher tick (no extra
    #: simulator events — ``counter_report`` stays byte-identical).
    timeline: bool = False
    #: Overload-control subsystem (see :mod:`repro.shedding`): adaptive
    #: backpressure tiers plus probabilistic thinning of thinnable
    #: updaters. ``None`` (the default) disables the whole subsystem —
    #: the engine then behaves byte-identically to pre-shedding builds.
    shedding: Optional[SheddingConfig] = None
    #: Accepted, selects nothing: there is one per-event path (see
    #: :meth:`SimRuntime._compile_handlers`) and both values build it.
    #: Kept for ``bench/``, which passes it, until the next benchmark PR
    #: drops the argument.
    fastforward: bool = False
    #: Elastic autoscaling policy (see :mod:`repro.elastic.autoscaler`):
    #: EWMA-smoothed queue/p99/dirty-backlog signals drive planned
    #: grow/shrink decisions at runtime. ``None`` (the default) leaves
    #: membership fully static/manual — prior runs are untouched.
    autoscale: Optional[AutoscalerConfig] = None
    #: Crash-safe live slate migration (see
    #: :mod:`repro.elastic.migration`): planned membership changes
    #: stream each moving slate's changelog donor→receiver and cut over
    #: behind a per-migration epoch barrier instead of the legacy
    #: cluster-wide flush + lazy rehydration. ``None`` (the default)
    #: keeps the legacy flush-barrier join path.
    migration: Optional[MigrationConfig] = None

    def __post_init__(self) -> None:
        if self.engine not in (ENGINE_MUPPET1, ENGINE_MUPPET2):
            raise ConfigurationError(
                f"engine must be {ENGINE_MUPPET1!r} or {ENGINE_MUPPET2!r}"
            )
        if self.batch_max_events < 0:
            raise ConfigurationError(
                "batch_max_events must be >= 0 (0 disables batching), "
                f"got {self.batch_max_events}")
        if self.batch_linger_s < 0:
            raise ConfigurationError(
                "batch_linger_s must be >= 0.0 seconds, "
                f"got {self.batch_linger_s!r}")
        if self.trace_capacity < 1:
            raise ConfigurationError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}")
        if self.overflow.kind == "throttle" and self.throttle is None:
            self.throttle = SourceThrottle()
        if self.shedding is not None and self.throttle is None:
            # The shedding controller's throttle tier drives a
            # SourceThrottle directly via pause()/resume() (no watermark
            # monitor); it still needs one to exist.
            self.throttle = SourceThrottle()
        if self.delivery_semantics not in (
                "at-most-once", "at-least-once", "effectively-once"):
            raise ConfigurationError(
                "delivery_semantics must be at-most-once, at-least-once "
                f"or effectively-once, got {self.delivery_semantics!r}")
        if self.checkpoint_epoch_s <= 0:
            raise ConfigurationError(
                "checkpoint_epoch_s must be > 0 seconds, "
                f"got {self.checkpoint_epoch_s!r}")
        if self.heartbeat_s is not None and self.heartbeat_s <= 0:
            raise ConfigurationError(
                "heartbeat_s must be > 0 seconds (or None to disable "
                f"the liveness sweep), got {self.heartbeat_s!r}")
        if self.delivery_semantics == "effectively-once":
            if self.replay_horizon_s is not None:
                raise ConfigurationError(
                    "effectively-once prunes its journal at checkpoint "
                    "epochs; replay_horizon_s must stay None (a time "
                    "horizon could drop entries still needed for exact "
                    "recovery)")
        elif self.replay_horizon_s is not None:
            # Legacy spelling: a bare horizon always meant "replay on".
            self.delivery_semantics = "at-least-once"
        elif self.delivery_semantics == "at-least-once":
            self.replay_horizon_s = 0.25
        if self.migration is not None and self.engine != ENGINE_MUPPET2:
            raise ConfigurationError(
                "live slate migration requires the muppet2 engine (one "
                "central slate manager per machine to stream from), "
                f"got engine={self.engine!r}")
        if self.autoscale is not None and self.engine != ENGINE_MUPPET2:
            raise ConfigurationError(
                "elastic autoscaling requires the muppet2 engine, "
                f"got engine={self.engine!r}")


@dataclass(slots=True)
class _Envelope:
    """An event in flight, carrying provenance for latency accounting."""

    event: Event
    birth_ts: float
    dest_fn: str
    is_timer: bool = False
    timer_payload: Any = None
    #: Set once the envelope has been diverted to an overflow stream;
    #: a second overflow then drops it (no diversion recursion).
    diverted: bool = False
    #: True for envelopes resurrected from a sender's replay journal
    #: (and for everything an operator derives from one). Only these are
    #: checked against the per-slate dedup watermarks — fresh events
    #: always apply, so late out-of-order fresh delivery is never
    #: mistaken for a duplicate.
    replayed: bool = False


class _Worker:
    """One execution slot: a 1.0 worker process or a 2.0 thread."""

    __slots__ = ("wid", "machine", "index", "function", "queue", "busy",
                 "current", "waiting", "mgr")

    def __init__(self, wid: str, machine: "_Machine", index: int,
                 function: Optional[str], queue_capacity: int,
                 mgr: SlateManager) -> None:
        self.wid = wid
        self.machine = machine
        self.index = index
        self.function = function          # None => any function (2.0)
        self.queue: BoundedQueue[_Envelope] = BoundedQueue(queue_capacity)
        self.busy = False
        self.current: Optional[Tuple[str, str]] = None
        self.waiting = False
        self.mgr = mgr


class _Machine:
    """A simulated cluster machine hosting workers and a kv node."""

    def __init__(self, name: str, cores: int) -> None:
        self.name = name
        self.cores = cores
        self.alive = True
        self.free_cores = cores
        self.waiting: Deque[_Worker] = deque()
        self.workers: List[_Worker] = []
        self.dispatcher: Optional[TwoChoiceDispatcher] = None
        self.shared_instances: Dict[str, Operator] = {}
        self.central_mgr: Optional[SlateManager] = None
        self.device_busy_until = 0.0
        #: Current overload-control pressure tier (0 = normal); written
        #: by the shedding monitor, read on the per-event hot paths.
        self.pressure_tier = 0
        #: Retired by a scale-down: out of the worker ring but kept in
        #: ``SimRuntime.machines`` (probe/report key sets stay stable),
        #: and first in line for re-admission on the next scale-up.
        self.retired = False
        #: Effectively-once replay ordering guard (2.0 engine only).
        #: While replayed envelopes for a (key, fn) sit in a worker's
        #: queue, every same-(key, fn) dispatch must land on that worker:
        #: the two-choice spill rule would otherwise let a *fresh* event
        #: jump to the idle secondary, apply first, and advance the slate
        #: watermark past the still-queued replay — which then gets
        #: dedup-skipped even though its effect was lost in the crash.
        #: Maps (key, fn) -> [worker, queued_replay_count]; empty (zero
        #: cost) whenever no replays are in flight.
        self.replay_pins: Dict[Tuple[str, str], List[Any]] = {}

    def queue_depth_fraction(self) -> float:
        """Worst queue fullness across this machine's workers."""
        worst = 0.0
        for worker in self.workers:
            cap = worker.queue.max_size or 1
            worst = max(worst, len(worker.queue) / cap)
        return worst


@dataclass
class SimReport:
    """Everything a benchmark needs from one simulated run."""

    engine: str
    duration_s: float
    counters: EventCounter
    latency: Optional[LatencySummary]
    latency_by_updater: Dict[str, LatencySummary]
    throughput: ThroughputReport
    dispatch_stats: Dict[str, Any]
    master_stats: Dict[str, int]
    queue_peak_depth: int
    slate_contention_events: int
    max_workers_per_slate: int
    failure_detection_s: Optional[float]
    throttle_paused_s: float
    memory_mb_per_machine: float
    kv_stats: Dict[str, Dict[str, int]]
    device_stats: Dict[str, Dict[str, float]]
    steps: int
    robustness: RobustnessCounters = field(
        default_factory=RobustnessCounters)
    dataplane: DataPlaneCounters = field(
        default_factory=DataPlaneCounters)
    #: Replay-journal accounting (all zero when replay is off).
    replay: ReplayStats = field(default_factory=ReplayStats)
    #: Overload-control accounting (all zero when shedding is off).
    shedding: SheddingCounters = field(default_factory=SheddingCounters)
    #: Ground-truth counter-error summary versus the reference executor
    #: (filled via :func:`repro.shedding.measure.attach_error_report`;
    #: None when no error measurement was taken).
    shedding_error: Optional[Dict[str, Any]] = None
    #: Full :class:`repro.obs.MetricsRegistry` family snapshot taken at
    #: report time: the six counter_report families plus the new
    #: observability families (queues, slates, kv, latency histograms).
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Timeline samples (``SimConfig.timeline``); None when disabled.
    timeline_data: Optional[Dict[str, Any]] = None

    #: counter_report's families, in their historical print order.
    REPORT_FAMILIES = ("counters", "robustness", "master", "dispatch",
                       "dataplane", "replay", "overload")

    def events_per_second(self) -> float:
        """Processed updater/mapper deliveries per simulated second."""
        return self.throughput.events_per_second

    def timeline(self) -> Dict[str, Any]:
        """Per-machine and per-updater timeseries sampled during the run.

        Shape: ``{"machines": {name: [{"t", "queue_depth", "queue_peak",
        "dirty_slates", "alive"}, ...]}, "updaters": {name: [{"t",
        "count", "mean", "p50", "p95", "p99", "max"}, ...]}}`` — empty
        series when ``SimConfig.timeline`` was off.
        """
        if self.timeline_data is None:
            return {"machines": {}, "updaters": {}}
        return self.timeline_data

    def counter_report(self) -> str:
        """A deterministic, line-oriented dump of every counter.

        Two runs of the same seeded :class:`~repro.faults.FaultSchedule`
        over the same workload must produce *byte-identical* output from
        this method — the chaos-determinism contract tests assert on it.
        Floats are rendered with ``repr`` (shortest round-trip form), so
        any numeric drift shows up as a diff.

        The body is generated from the :class:`~repro.obs.
        MetricsRegistry` family snapshot captured at report time; the
        families and their keys mirror the pre-registry sections
        exactly, so the output is byte-identical across the refactor.
        Only the six historical families print — the registry's new
        families (queues, slates, kv, latency) are read via
        :attr:`metrics` instead, so existing seeded gates stay stable.
        """
        lines = [f"engine={self.engine}",
                 f"duration_s={self.duration_s!r}",
                 f"steps={self.steps}"]
        for family in self.REPORT_FAMILIES:
            for name, value in sorted(self.metrics.get(family, {}).items()):
                lines.append(f"{family}.{name}={value!r}")
        return "\n".join(lines)


class SimRuntime:
    """Runs one MapUpdate application on a simulated Muppet cluster.

    Args:
        app: A validated application.
        cluster: The machine/network topology to simulate.
        config: Engine and policy knobs.
        sources: External-stream feeds.
        failures: Either the legacy ``[(time_s, machine_name), ...]``
            kill list, or a :class:`repro.faults.FaultSchedule` with the
            full chaos vocabulary (crash/recover, partitions, slow
            nodes, message drop/delay, kv outages).
    """

    def __init__(
        self,
        app: Application,
        cluster: ClusterSpec,
        config: Optional[SimConfig] = None,
        sources: Iterable[Source] = (),
        failures: Union[Iterable[Tuple[float, str]], FaultSchedule] = (),
        tracer: Optional[Tracer] = None,
    ) -> None:
        app.validate()
        self.app = app
        self.cluster = cluster
        self.config = config or SimConfig()
        self.sources = list(sources)
        #: The span sink, or None when tracing is off. Every emission
        #: site guards on ``self._trace is not None`` so the disabled
        #: path costs one attribute test — nothing is allocated, no
        #: span arguments are even built.
        if tracer is not None:
            self._trace: Optional[Tracer] = tracer
        elif self.config.trace:
            self._trace = RingTracer(self.config.trace_capacity)
        else:
            self._trace = None
        self._timeline = (TimelineRecorder() if self.config.timeline
                          else None)
        #: The observability registry: every stats object below is
        #: registered as a live view (see :meth:`_register_metrics`).
        self.metrics = MetricsRegistry()
        if isinstance(failures, FaultSchedule):
            self.fault_schedule = failures
        else:
            self.fault_schedule = FaultSchedule.from_kill_list(failures)
        injector = FaultInjector(self.fault_schedule)
        #: Interval-rule injector; None when no rule exists so the
        #: per-message hot path stays untouched for fault-free runs.
        self._injector = injector if injector.has_rules() else None
        self._recoveries = 0
        self.sim = Simulator()
        self.counters = EventCounter()
        self.master = Master()
        self.latency: Dict[str, LatencyRecorder] = {}
        self._known_failed: Set[str] = set()
        self._failure_time: Optional[float] = None
        self._detection_time: Optional[float] = None
        self._contention_events = 0
        self._max_workers_per_slate = 1
        self._processing_counts: Dict[Tuple[str, str], int] = {}
        #: Data-plane batching state, keyed by (source machine or None
        #: for M0/source sends, destination machine) — one buffer and at
        #: most one linger timer per link.
        self._batching = self.config.batch_max_events > 0
        self._batch_buffers: Dict[Tuple[Optional[str], str],
                                  List[_Envelope]] = {}
        self._batch_extra: Dict[Tuple[Optional[str], str], float] = {}
        self._batch_timers: Dict[Tuple[Optional[str], str],
                                 ScheduledEvent] = {}
        self._batch_last_arrival: Dict[Tuple[Optional[str], str],
                                       float] = {}
        self.dataplane = DataPlaneCounters()
        self._subs_cache: Dict[str, List[OperatorSpec]] = {}

        self.store = ReplicatedKVStore(
            node_names=cluster.names(),
            replication_factor=self.config.kv_replication,
            clock=self.sim.clock,
            device_overrides={m.name: m.storage for m in cluster.machines},
            memtable_flush_bytes=self.config.kv_memtable_flush_bytes,
            tracer=self._trace,
        )
        from repro.muppet.replay import ReplayJournal

        semantics = self.config.delivery_semantics
        if semantics == "effectively-once":
            self.replay_journal: Optional[ReplayJournal] = (
                ReplayJournal.epoch_pruned())
        elif semantics == "at-least-once":
            self.replay_journal = ReplayJournal(self.config.replay_horizon_s)
        else:
            self.replay_journal = None
        #: Effectively-once state: dedup on, per-origin ids on derived
        #: events, and the checkpoint-epoch barrier.
        self._dedup = semantics == "effectively-once"
        self._replay_reapplied = 0
        self._epoch_pruned = 0
        self._timer_ids = itertools.count(1)
        #: Recent checkpoint-barrier times; epoch k prunes journal
        #: entries recorded before tick[k-2] (two periods of slack for
        #: effects still in flight or queued at the barrier).
        self._epoch_ticks: Deque[float] = deque(maxlen=3)
        self.counters_replayed = 0
        #: Overload-control state: controller + thinner exist only when
        #: ``SimConfig.shedding`` is set, so the disabled hot paths cost
        #: one ``is not None`` test each (same discipline as tracing).
        shed_cfg = self.config.shedding
        if shed_cfg is not None:
            if shed_cfg.overflow_sid is not None:
                # Validate eagerly: a typo'd overflow stream should fail
                # at construction, not mid-overload.
                app.streams.spec(shed_cfg.overflow_sid)
            self._shed: Optional[BackpressureController] = (
                BackpressureController(shed_cfg))
            self._thinner: Optional[Thinner] = Thinner(
                shed_cfg.thinning, seed=shed_cfg.seed)
            self._thinnable: Set[str] = {
                s.name for s in app.thinnable_updaters()}
        else:
            self._shed = None
            self._thinner = None
            self._thinnable = set()
        #: Shedding accounting; an all-zero stand-in when shedding is
        #: off so the ``overload`` metrics family stays present (and
        #: deterministic) in every report.
        self.shedding = (self._shed.counters if self._shed is not None
                         else SheddingCounters())
        #: Per-machine overflow outcome counts (satellite of the
        #: ``overload`` family): ``{machine: {outcome: count}}``.
        self._overflow_outcomes: Dict[str, Dict[str, int]] = {}
        #: Elastic scaling: the autoscaler decides, the migration
        #: coordinator executes. Both are None when unconfigured, so
        #: every previously-working configuration runs byte-identically
        #: (no extra simulator events, no new metrics family).
        auto_cfg = self.config.autoscale
        self._autoscaler = (Autoscaler(auto_cfg)
                            if auto_cfg is not None else None)
        mig_cfg = self.config.migration
        if mig_cfg is not None:
            self._migration: Optional[MigrationCoordinator] = (
                MigrationCoordinator(
                    self, mig_cfg,
                    self.fault_schedule.migration_triggers()))
        else:
            self._migration = None
        #: Scale requests queued behind the (single) in-flight
        #: migration, as (kind, machine) pairs.
        self._pending_scale: Deque[Tuple[str, str]] = deque()
        #: Elastic joins in admission order — shrink retires LIFO.
        self._join_order: List[str] = []
        self._elastic_seq = itertools.count(1)
        #: Machines whose queue/slate probes are registered: the seed
        #: machines' by _register_metrics (in its family order), a
        #: runtime join's exactly once by _construct_machine.
        self._probed_machines: Set[str] = set(self.cluster.names())
        self.machines: Dict[str, _Machine] = {}
        #: Muppet 1.0 only: worker id -> worker, in construction order.
        self._worker_by_id: Dict[str, _Worker] = {}
        for spec in self.cluster.machines:
            self._construct_machine(spec.name, spec.cores)
        self._build_rings()
        self._register_metrics()
        self._is_muppet2 = self.config.engine == ENGINE_MUPPET2
        self._op_specs: Dict[str, OperatorSpec] = {
            s.name: s for s in self.app.operators()}
        self._compile_handlers()

    @property
    def tracer(self) -> Optional[Tracer]:
        """The active span sink, or None when tracing is off."""
        return self._trace

    # -- construction ------------------------------------------------------
    def _new_manager(self, capacity: int,
                     owner: Optional[str] = None) -> SlateManager:
        return SlateManager(
            store=self.store,
            cache_capacity=max(1, capacity),
            flush_policy=self.config.flush_policy,
            clock=self.sim.clock,
            consistency=self.config.consistency,
            max_slate_bytes=self.config.max_slate_bytes,
            retry=self.config.kv_retry,
            coalesce_flushes=self.config.coalesce_slate_flushes,
            tracer=self._trace,
            owner=owner,
        )

    def _build_rings(self) -> None:
        memoize = self.config.memoize_routing
        self._machine_ring: HashRing[str] = HashRing(
            self.cluster.names(), memoize=memoize)
        #: Muppet 1.0 only: function -> ring of its workers' ids.
        self._function_rings: Dict[str, HashRing[str]] = {}
        if self.config.engine != ENGINE_MUPPET2:
            for op_spec in self.app.operators():
                workers = [
                    w.wid
                    for machine in self.machines.values()
                    for w in machine.workers
                    if w.function == op_spec.name
                ]
                self._function_rings[op_spec.name] = HashRing(
                    workers, memoize=memoize)

    def _register_metrics(self) -> None:
        """Attach every stats object to the registry as a live view.

        The first six families mirror ``SimReport.counter_report``'s
        historical sections exactly (same keys, same values), which is
        what keeps that report byte-identical across the registry
        refactor; the remaining families (queues, slates, kv, latency)
        are new observability surface read via ``SimReport.metrics`` or
        the CLI ``--metrics-out`` sink.
        """
        from repro.muppet.replay import ReplayStats

        reg = self.metrics
        reg.register_group("counters", self.counters.snapshot)
        reg.register_group(
            "robustness", lambda: self._robustness_counters().as_dict())
        reg.register_group("master", self.master.stats.as_dict)
        reg.register_group("dispatch", self._dispatch_stats)
        reg.register_group("dataplane", self.dataplane.as_dict)
        reg.register_group(
            "replay",
            lambda: asdict(self.replay_journal.stats
                           if self.replay_journal is not None
                           else ReplayStats()))
        reg.register_group("overload", self._overload_stats)
        for name, machine in self.machines.items():
            reg.register_group(f"queues.{name}",
                               self._make_queue_probe(machine))
            reg.register_group(f"slates.{name}",
                               self._make_slate_probe(machine))
        reg.register_group("kv", self._kv_probe)
        if self._autoscaler is not None or self._migration is not None:
            # Registered only when the subsystem is on: the family's
            # presence in metrics snapshots must not perturb runs that
            # never asked for elasticity.
            reg.register_group("elastic", self._elastic_stats)

    #: Overflow outcomes reported per machine under ``overload.queue.*``
    #: (zero-filled so the key set is load-independent).
    _OVERFLOW_OUTCOMES = ("dropped", "diverted", "diverted_proactive",
                          "throttle_retries")

    def _overload_stats(self) -> Dict[str, Any]:
        """The ``overload`` metrics family: shedding counters, source-
        throttle duty cycle, per-machine tier and overflow outcomes."""
        stats: Dict[str, Any] = self.shedding.as_dict()
        throttle = self.config.throttle
        now = self.sim.now()
        stats["throttle_pauses"] = (throttle.pause_count
                                    if throttle is not None else 0)
        stats["throttle_duty"] = (throttle.duty_cycle(now)
                                  if throttle is not None else 0.0)
        for name in sorted(self.machines):
            outcomes = self._overflow_outcomes.get(name, {})
            for outcome in self._OVERFLOW_OUTCOMES:
                stats[f"queue.{name}.{outcome}"] = outcomes.get(outcome, 0)
            stats[f"tier.{name}"] = (self._shed.tier_of(name)
                                     if self._shed is not None else 0)
        return stats

    def _note_overflow(self, machine_name: str, outcome: str) -> None:
        outcomes = self._overflow_outcomes.get(machine_name)
        if outcomes is None:
            outcomes = self._overflow_outcomes[machine_name] = {}
        outcomes[outcome] = outcomes.get(outcome, 0) + 1

    def _make_queue_probe(self, machine: "_Machine"):
        def probe() -> Dict[str, int]:
            return {
                "depth": sum(len(w.queue) for w in machine.workers),
                "peak": max((w.queue.stats.peak_depth
                             for w in machine.workers), default=0),
                "rejected": sum(w.queue.stats.rejected
                                for w in machine.workers),
            }
        return probe

    def _make_slate_probe(self, machine: "_Machine"):
        def probe() -> Dict[str, int]:
            managers = self._managers_of(machine)
            stats: Dict[str, int] = {
                "dirty": sum(m.cache.dirty_count() for m in managers),
                "resident": sum(len(m.cache) for m in managers),
            }
            for field_name in ("kv_reads", "kv_writes", "batch_flushes",
                               "rehydrated"):
                stats[field_name] = sum(getattr(m.stats, field_name)
                                        for m in managers)
            for field_name in ("hits", "misses", "evictions",
                               "dirty_evictions"):
                stats[f"cache_{field_name}"] = sum(
                    m.cache.stats.as_dict()[field_name] for m in managers)
            return stats
        return probe

    def _kv_probe(self) -> Dict[str, int]:
        flat: Dict[str, int] = {
            "hints_stored": self.store.hints_stored,
            "hints_delivered": self.store.hints_delivered,
            "hints_pending": self.store.pending_hints(),
        }
        for node_name, stats in self.store.stats_by_node().items():
            for key, value in stats.items():
                flat[f"{node_name}.{key}"] = value
        for node_name, node in self.store.nodes.items():
            for key, value in node.observable_state().items():
                flat[f"{node_name}.{key}"] = value
        return flat

    def _dispatch_stats(self) -> Dict[str, Any]:
        """Cluster-wide dispatcher counters (summed across machines)."""
        dispatch: Dict[str, Any] = {}
        for machine in self.machines.values():
            if machine.dispatcher is not None:
                stats = machine.dispatcher.stats
                for key, value in stats.as_dict().items():
                    dispatch[key] = dispatch.get(key, 0) + value
        return dispatch

    # -- top-level run -------------------------------------------------------
    def run(self, duration_s: float) -> SimReport:
        """Simulate ``duration_s`` seconds and summarize the outcome.

        Cyclic garbage collection is deferred for the duration of the
        event loop: the per-event records (tuple events, slotted
        envelopes, heap entries, journal and batch-buffer entries) are
        acyclic and die by refcount, so the collector's generation scans
        are pure overhead mid-run. Collection is re-enabled before the
        report is built, picking up whatever was deferred. This changes
        no simulated state — it only removes wall-clock noise.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._run_events(duration_s)
        finally:
            if collecting:
                gc.enable()
        return self._report(duration_s)

    def ff_summary(self) -> Dict[str, int]:
        """How many steps the trampoline ran inline vs through the heap
        (the name predates the single path; ``bench/`` reads it)."""
        inlined = self.sim.inlined_steps
        return {"inlined_steps": inlined,
                "heap_steps": self.sim.steps - inlined}

    def _run_events(self, duration_s: float) -> None:
        """Schedule sources, faults and background ticks; run the loop."""
        for source in self.sources:
            self._start_source(source)
        for fault in self.fault_schedule.point_events():
            if fault.kind == "crash":
                self.sim.schedule(fault.at, self._make_failure(fault.machine),
                                  priority=-1)
            elif fault.kind == "recover":
                self.sim.schedule(fault.at,
                                  self._make_recovery(fault.machine),
                                  priority=-1)
            elif fault.kind == "kv_outage":
                self.sim.schedule(fault.at, self._make_kv_down(fault.machine),
                                  priority=-1)
                self.sim.schedule(fault.until,
                                  self._make_kv_up(fault.machine),
                                  priority=-1)
        self._schedule_flusher()
        if self.config.heartbeat_s is not None:
            self._schedule_heartbeat()
        if self._dedup:
            self._schedule_epochs()
        if self._shed is not None:
            # The backpressure controller owns the throttle (tier 3
            # pauses sources); the classic watermark monitor would fight
            # it, so only one of the two runs.
            self._schedule_shedding_monitor()
        elif self.config.throttle is not None:
            self._schedule_throttle_monitor()
        if self._autoscaler is not None:
            self._schedule_autoscaler()
        self.sim.run_until(duration_s)
        if self._shed is not None:
            self._shed.finish(self.sim.now())
        if self.config.throttle is not None:
            self.config.throttle.finish(self.sim.now())

    def _subscribers_of(self, sid: str) -> List[OperatorSpec]:
        """Per-sid subscriber lists, cached (the workflow is immutable
        once the runtime is built; ``Application.subscribers_of`` scans
        every operator per call, far too slow for the per-event path)."""
        subs = self._subs_cache.get(sid)
        if subs is None:
            subs = self._subs_cache[sid] = list(self.app.subscribers_of(sid))
        return subs

    # -- data-plane batching ---------------------------------------------------
    def _batch_enqueue(self, envelope: _Envelope,
                       from_machine: Optional[str], machine: _Machine,
                       extra_delay: float) -> None:
        """Buffer one event on its (source, destination) link.

        The buffer ships when it reaches ``batch_max_events`` or when
        the per-link linger timer expires, whichever comes first.
        """
        key = (from_machine, machine.name)
        buf = self._batch_buffers.get(key)
        if buf is None:
            buf = self._batch_buffers[key] = []
        buf.append(envelope)
        self.dataplane.batched_events += 1
        if extra_delay > self._batch_extra.get(key, 0.0):
            self._batch_extra[key] = extra_delay
        if len(buf) >= self.config.batch_max_events:
            self.dataplane.size_flushes += 1
            self._flush_batch(key, trigger="size")
            return
        if key not in self._batch_timers:
            self._batch_timers[key] = self.sim.schedule_cancellable(
                self.config.batch_linger_s,
                lambda sim: self._linger_expired(key))

    def _linger_expired(self, key: Tuple[Optional[str], str]) -> None:
        self._batch_timers.pop(key, None)
        if self._batch_buffers.get(key):
            self.dataplane.linger_flushes += 1
            self._flush_batch(key, trigger="linger")

    def _flush_batch(self, key: Tuple[Optional[str], str],
                     trigger: str = "forced") -> None:
        """Ship one link's buffer as a single coalesced envelope.

        One per-message network latency is paid for the whole batch,
        plus bandwidth for the combined payload bytes; the fault
        injector decides one fate for the envelope (a dropped batch
        loses every event in it, like a dropped TCP connection). An
        arrival-time clamp keeps the link FIFO: a later, smaller batch
        must not overtake an earlier, larger one mid-flight.
        """
        timer = self._batch_timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        envelopes = self._batch_buffers.pop(key, None)
        extra = self._batch_extra.pop(key, 0.0)
        if not envelopes:
            return
        from_name, dest_name = key
        machine = self.machines[dest_name]
        if not machine.alive:
            for env in envelopes:
                self._handle_dead_destination(machine, env)
            return
        total_bytes = sum(e.event.size_bytes() for e in envelopes)
        delay = extra + self.cluster.network.transfer_time(
            total_bytes, same_machine=False)
        if self._injector is not None:
            delivered, delay = self._injector.message_fate(
                from_name, dest_name, self.sim.now(), delay)
            if not delivered:
                return
        arrival = max(self.sim.now() + delay,
                      self._batch_last_arrival.get(key, 0.0))
        self._batch_last_arrival[key] = arrival
        self.dataplane.batches_sent += 1
        if len(envelopes) > self.dataplane.max_batch_events:
            self.dataplane.max_batch_events = len(envelopes)
        if self._trace is not None:
            self._trace.emit(self.sim.now(), "batch_flush",
                             src=from_name, dst=dest_name,
                             events=len(envelopes), trigger=trigger)

        def deliver_all(sim: Simulator) -> None:
            for env in envelopes:
                # A heap-dispatched _deliver returns the started event's
                # finish as its tail; mid-batch it is scheduled at once,
                # so sequence numbers are consumed in the same order.
                tail = self._deliver(machine, env)
                if tail is not None:
                    sim.schedule_call(tail[0], tail[1], *tail[2])

        self.sim.schedule(arrival, deliver_all)

    def _flush_all_batches(self) -> None:
        """Force every buffered batch onto the wire (ring changes)."""
        if not self._batching:
            return
        for key in list(self._batch_buffers.keys()):
            if self._batch_buffers.get(key):
                self.dataplane.forced_flushes += 1
                self._flush_batch(key)

    def _flush_batches_to(self, dest_name: str) -> None:
        """Force batches headed for one machine (it just died)."""
        if not self._batching:
            return
        for key in [k for k in self._batch_buffers if k[1] == dest_name]:
            if self._batch_buffers.get(key):
                self.dataplane.forced_flushes += 1
                self._flush_batch(key)

    def _destination_machine(self, envelope: _Envelope) -> Optional[_Machine]:
        key = route_key(envelope.event.key, envelope.dest_fn)
        try:
            if self.config.engine == ENGINE_MUPPET2:
                name = self._machine_ring.lookup(key)
                return self.machines[name]
            ring = self._function_rings[envelope.dest_fn]
            wid = ring.lookup(key)
            return self._worker_by_id[wid].machine
        except Exception:
            return None

    def _handle_dead_destination(self, machine: _Machine,
                                 envelope: _Envelope) -> None:
        """Sender-side failure detection (Section 4.3): the event is lost
        (and logged as lost); the master broadcast then reroutes."""
        self.counters.lost_failure += 1
        if machine.name in self._known_failed:
            return
        latency = self.cluster.network.latency_s

        def broadcast(sim: Simulator) -> None:
            self._declare_machine_failed(machine.name)

        # Report to master (one hop) + broadcast to workers (one hop).
        self.sim.schedule_in(2 * latency, broadcast, priority=-1)

    def _declare_machine_failed(self, machine_name: str) -> None:
        """Master-side failure handling: exclude the machine and replay.

        The body of the Section 4.3 failure broadcast, callable both
        from the deferred sender-detection path and synchronously (the
        migration coordinator declares a receiver dead at ack time —
        the replayable window is still pinned by the migration hold, so
        exclusion + journal replay heal the handed-off keys exactly).
        Idempotent: a machine already known failed is a no-op.
        """
        if machine_name in self._known_failed:
            return
        machine = self.machines[machine_name]
        now = self.sim.now()
        self._known_failed.add(machine_name)
        self.master.report_failure(machine_name)
        self._machine_ring.exclude(machine_name)
        for ring in self._function_rings.values():  # noqa: MUP010 -- built once at construction; per-ring excludes commute
            for worker in machine.workers:
                ring.exclude(worker.wid)
        if self._trace is not None:
            self._trace.emit(now, "ring_change",
                             change="exclude", machine=machine_name)
        if self._detection_time is None and self._failure_time is not None:
            self._detection_time = now - self._failure_time
        if self.replay_journal is not None:
            # Section 4.3 future work, implemented: re-send the
            # horizon's worth of events that targeted the dead
            # machine. The ring now routes them to survivors. Under
            # effectively-once the resends are flagged so the
            # receiving updaters check them (and everything derived
            # from them) against their dedup watermarks.
            for lost in self.replay_journal.take_for(machine_name, now):
                self.counters_replayed += 1
                if self._dedup:
                    lost.replayed = True
                self._send(lost, None)

    def _overflow(self, machine: _Machine, worker: _Worker,
                  envelope: _Envelope) -> None:
        policy = self.config.overflow
        if policy.kind == "drop" or envelope.diverted:
            self.counters.dropped_overflow += 1
            self._note_overflow(machine.name, "dropped")
            if self._trace is not None:
                self._trace_envelope("shed", machine, envelope,
                                     outcome="drop")
            return
        if policy.kind == "divert":
            assert policy.overflow_sid is not None
            self._note_overflow(machine.name, "diverted")
            self._divert(machine, envelope, policy.overflow_sid)
            return
        # throttle: hold the event and retry; the throttle monitor pauses
        # the sources meanwhile, so the queue drains.
        self.counters.throttled += 1
        self._note_overflow(machine.name, "throttle_retries")
        if self._trace is not None:
            self._trace_envelope("shed", machine, envelope,
                                 outcome="throttle_retry")
        self.sim.schedule_call_in(self.config.retry_delay_s,
                                  self._deliver, machine, envelope)

    def _divert(self, machine: _Machine, envelope: _Envelope,
                overflow_sid: str, proactive: bool = False) -> None:
        """Re-address one envelope to the degraded overflow stream.

        The diverted copy pins the original's replay-stable
        ``(origin, oseq)`` across the re-stamp — for a source event the
        provenance fallback is ``(sid, seq)``, which re-stamping onto a
        new stream would otherwise rewrite. One event therefore carries
        one identity whether it travels the normal or the degraded path,
        so the effectively-once audit, dedup watermarks, and
        ``ReplayStats`` account for diverted-then-reingested events
        instead of double-counting them. The ``replayed`` flag survives
        diversion for the same reason.
        """
        self.counters.diverted_overflow_stream += 1
        origin, oseq = envelope.event.provenance()
        stamped = self.app.streams.stamp(
            envelope.event.with_stream(overflow_sid))
        stamped = stamped.with_provenance(origin, oseq)
        if self._trace is not None:
            self._trace_envelope("shed", machine, envelope,
                                 outcome="divert", proactive=proactive)
        for spec in self._subscribers_of(overflow_sid):
            self._send(_Envelope(stamped, envelope.birth_ts, spec.name,
                                 diverted=True, replayed=envelope.replayed),
                       machine.name)

    # -- the per-event path ----------------------------------------------------
    def _compile_handlers(self) -> None:
        """Closure-compile inject → send → deliver → execute → finish.

        This is the only per-event path. Every per-event constant (cost
        terms, stream sequencers, subscriber tuples, network parameters)
        is a closure cell — one LOAD_DEREF instead of an attribute chain
        — and the dispatcher's memo-hit decision, the slate-cache hit,
        the event-size arithmetic and the slate touch are inlined with
        their stats bookkeeping replicated operation for operation.
        Every optional feature is one construction-time boolean cell
        (``tracing``, ``dedup``, ``batching``, ``shedding``, ``muppet1``
        ...) guarding a call into that feature's cold method, so a
        disabled feature costs one untaken branch and an enabled one
        runs the same code every other configuration runs. Float
        service-time and delay expressions keep one fixed operand order
        throughout: reports are compared byte for byte.

        ``_deliver`` and ``_finish`` *return* the continuation they end
        on — the started event's ``_finish`` — as a tail
        ``(at, action, args)`` instead of pushing it, and the source
        stepper returns its own wake-up the same way;
        :meth:`Simulator._drain` runs a tail inline when it would have
        been the next pop anyway. The model checker labels heap entries
        by these closures' ``__name__`` (``_deliver``/``_finish``/
        ``_send``/``step``), so the names are part of the contract.
        """
        rt = self
        cfg = self.config
        costs = cfg.costs
        clock = self.sim.clock
        heap = self.sim._heap
        sim_seq = self.sim._seq
        counters = self.counters
        pcounts = self._processing_counts
        latency = self.latency
        ring = self._machine_ring
        injector = self._injector
        streams = self.app.streams
        ops = self._op_specs
        journal = self.replay_journal
        trace = self._trace
        throttle = cfg.throttle
        throttle_check_s = THROTTLE_CHECK_S

        # One boolean cell per optional feature.
        tracing = trace is not None
        dedup = self._dedup
        at_least_once = journal is not None and not dedup
        batching = self._batching
        shedding = self._shed is not None
        thinnable = self._thinnable
        muppet2 = self._is_muppet2
        muppet1 = not muppet2
        two_choice = muppet2 and cfg.two_choice
        memoize = muppet2 and cfg.memoize_routing

        lock_s = costs.dispatch_lock_s * (2 if muppet2 else 1)
        switch_s = costs.context_switch_s
        map_s = costs.map_service_s
        upd_s = costs.update_service_s
        byte_s = costs.slate_byte_cost_s
        cont_s = costs.slate_contention_s
        source_s = costs.source_service_s
        # Muppet 1.0 conductor <-> task-processor IPC: a fixed wakeup
        # cost plus a byte-accurate serialization charge.
        ipc = (None if muppet2
               else IPCAccountant(fixed_s=costs.ipc_overhead_s))
        net = self.cluster.network
        inline_net = type(net) is NetworkSpec
        net_lat = net.latency_s
        net_bw = net.bandwidth_bytes_per_s
        max_bytes = cfg.max_slate_bytes
        write_through = cfg.flush_policy.kind == "write_through"
        sinks = cfg.latency_sinks
        latency_ops = frozenset(
            s.name for s in self.app.operators()
            if s.kind == "update" and (sinks is None or s.name in sinks))
        # sid -> (sequencer, subscriber names, external?). Stamping is
        # inlined through this table; an unknown sid, or an operator
        # publishing into an external stream, takes the registry's
        # checked stamp(), which raises the proper WorkflowError.
        stream_info = {
            sid: (streams._seq[sid],
                  tuple(s.name for s in self._subscribers_of(sid)),
                  streams.spec(sid).external)
            for sid in streams.sids()}
        tuple_new = tuple.__new__
        obj_new = object.__new__

        # (key, fn) -> _Machine, valid for one ring generation. Pure
        # given the generation, but the memoize_routing ablation still
        # means "recompute every hash", so it is honoured here too.
        dest_memo: Dict[Tuple[str, str], _Machine] = {}
        ring_gen = [ring.generation]
        #: (key, fn) -> SlateKey: pure value identity, only bounded.
        skeys: Dict[Tuple[str, str], SlateKey] = {}

        destination_machine = self._destination_machine
        handle_dead = self._handle_dead_destination
        overflow = self._overflow
        schedule_timer = self._schedule_timer
        batch_enqueue = self._batch_enqueue
        trace_envelope = self._trace_envelope

        def _send(envelope: _Envelope, from_machine: Optional[str],
                  extra_delay: float = 0.0) -> None:  # hot-path
            event = envelope.event
            if memoize:
                if ring_gen[0] != ring.generation:
                    dest_memo.clear()
                    ring_gen[0] = ring.generation
                machine = dest_memo.get((event.key, envelope.dest_fn))
                if machine is None:
                    machine = destination_machine(envelope)
                    if machine is not None:
                        if len(dest_memo) >= _MEMO_MAX:
                            dest_memo.clear()
                        dest_memo[(event.key, envelope.dest_fn)] = machine
            else:
                machine = destination_machine(envelope)
            if machine is None:
                counters.lost_failure += 1
                return
            if dedup and not envelope.is_timer:
                # Effectively-once journals *before* the liveness check:
                # an event addressed to a machine that died an instant
                # ago (the window before the master broadcast reroutes
                # the ring) must still be replayable, or it is lost
                # exactly as under at-most-once. Timers are exempt — a
                # replayed invocation that re-applies re-derives its
                # timers, so journaling them too would double-fire.
                journal.record(machine.name, envelope, clock._now)
            if not machine.alive:
                handle_dead(machine, envelope)
                return
            if at_least_once:
                journal.record(machine.name, envelope, clock._now)
            same = from_machine == machine.name
            if (batching and not same
                    and not (dedup and envelope.replayed)):
                # Loopback sends skip batching: they pay no per-message
                # network latency, so coalescing would only add linger.
                # Replayed envelopes (effectively-once) also ship solo:
                # a resend lingering in a coalescing buffer could be
                # overtaken by a fresh, higher-sequence event arriving
                # over a different link, and a lost event sneaking in
                # *behind* the watermark its successor advanced would be
                # mistaken for a duplicate. Batching only ever delays an
                # event, so solo resends stay ahead of everything sent
                # after them.
                batch_enqueue(envelope, from_machine, machine, extra_delay)
                return
            if not inline_net:
                delay = extra_delay + net.transfer_time(
                    event.size_bytes(), same_machine=same)
            elif same:
                delay = extra_delay
            else:
                # Event.size_bytes() inlined for the common payload
                # types (same arithmetic; other types take the method).
                v = event.value
                tv = type(v)
                if v is None:
                    size = 16 + len(event.sid) + len(event.key)
                elif tv is int:
                    size = (16 + len(event.sid) + len(event.key)
                            + len(repr(v)))
                elif tv is str:
                    size = (16 + len(event.sid) + len(event.key)
                            + len(v.encode("utf-8")))
                else:
                    size = event.size_bytes()
                delay = extra_delay + (net_lat + size / net_bw)
            if injector is not None:
                delivered, delay = injector.message_fate(
                    from_machine, machine.name, clock._now, delay)
                if not delivered:
                    # Partition/drop losses are silent: the sender does
                    # not learn of them, so no failure report follows
                    # (unlike a dead destination). Replay, if enabled,
                    # journaled the event above and can resurrect it on
                    # a later crash.
                    return
            now = clock._now
            heappush(heap, (now + delay if delay > 0.0 else now, 0,
                            next(sim_seq), _deliver, None,
                            (machine, envelope)))

        def _inject(event: Event) -> None:  # hot-path
            """M0 reads one source event and hashes it onward (§4.1)."""
            info = stream_info.get(event[0])
            if info is None:
                stamped = streams.stamp(event)  # raises: unknown sid
            else:
                # Event.with_seq, flattened to one C-level allocation
                # (fields are tuple slots 0..6).
                stamped = tuple_new(
                    Event, (event[0], event[1], event[2], event[3],
                            next(info[0]), event[5], event[6]))
            counters.published += 1
            birth = clock._now
            if trace is not None:
                origin, oseq = stamped.provenance()
                trace.emit(birth, "source", sid=stamped.sid,
                           key=stamped.key, origin=origin, oseq=oseq)
            for sub_name in info[1]:
                # _Envelope(stamped, birth, sub_name), allocated without
                # the dataclass __init__ frame.
                env = obj_new(_Envelope)
                env.event = stamped
                env.birth_ts = birth
                env.dest_fn = sub_name
                env.is_timer = False
                env.timer_payload = None
                env.diverted = False
                env.replayed = False
                _send(env, None, source_s)

        def try_start(worker: _Worker, tail: bool):  # hot-path
            """Start the worker's next queued event if a core is free;
            the event's ``_finish`` is returned (``tail``) or pushed."""
            machine = worker.machine
            if not machine.alive or worker.busy:
                return None
            items = worker.queue._items
            if not items:
                return None
            if machine.free_cores <= 0:
                if not worker.waiting:
                    machine.waiting.append(worker)
                    worker.waiting = True
                return None
            machine.free_cores -= 1
            envelope = items.popleft()
            worker.busy = True
            event = envelope.event
            fn = envelope.dest_fn
            key = event[2]
            ts = event[1]
            item = (key, fn)
            worker.current = item
            if (dedup and machine.replay_pins and envelope.replayed
                    and not envelope.is_timer):
                rt._unpin_replay(machine, item)
            count = pcounts.get(item, 0) + 1
            pcounts[item] = count
            if count > rt._max_workers_per_slate:
                rt._max_workers_per_slate = count
            # -- execute: run the operator now, charge its service time --
            spec = ops[fn]
            # Muppet 1.0 loads one copy of the code per worker process.
            instance = machine.shared_instances[fn if muppet2
                                                else worker.wid]
            # Context(), allocated without the constructor frame — the
            # slot stores below are __init__'s body verbatim.
            ctx = obj_new(Context)
            ctx.operator = fn
            ctx.input_ts = ts
            ctx.input_key = key
            ctx.now = ts
            ctx._output_sids = spec.publishes
            ctx.emitted = []
            ctx.timers = []
            if tracing:
                rt._trace_execute(machine, worker, envelope, spec)
            service = lock_s
            if muppet1 and len(machine.workers) > machine.cores:
                service += switch_s
            #: Thinned or dedup-skipped: the slate is not touched, no
            #: output is produced, and the service charged so far stands.
            skipped = False
            if spec.kind == "map":
                if envelope.is_timer:
                    raise SimulationError("timer delivered to a mapper")
                instance.map(ctx, event)
                service += map_s * instance.cost_factor
                if muppet1:
                    service += ipc.cost(
                        event.size_bytes(), output_bytes=sum(
                            e.size_bytes() for e in ctx.emitted))
            else:
                weight = 1.0
                if (shedding and not envelope.is_timer
                        and machine.pressure_tier >= TIER_THIN
                        and fn in thinnable):
                    weight = rt._thin(machine, fn, event)
                    skipped = weight is None
                if not skipped:
                    mgr = worker.mgr
                    # Slate-cache hit, inlined with SlateCache.get's
                    # exact bookkeeping (LRU touch + hit count). Miss or
                    # TTL expiry delegates to the manager, which then
                    # does its own (single) stats accounting.
                    sk = skeys.get(item)
                    if sk is None:
                        if len(skeys) >= _MEMO_MAX:
                            skeys.clear()
                        sk = skeys[item] = SlateKey(fn, key)
                    cache = mgr.cache
                    slate = cache._slates.get(sk)
                    if slate is not None and (
                            slate.ttl is None
                            or not slate.expired(clock._now)):
                        cache._slates.move_to_end(sk)
                        cache.stats.hits += 1
                    else:
                        slate = mgr.get(instance, key)
                    if mgr.pending_io_s > 0.0:
                        service += rt._charge_device(machine, mgr)
                    if (dedup and envelope.replayed
                            and not envelope.is_timer):
                        skipped = rt._dedup_skips(machine, fn, event, slate)
                if not skipped:
                    if envelope.is_timer:
                        instance.on_timer(ctx, key, slate,
                                          envelope.timer_payload)
                    else:
                        if weight != 1.0:
                            instance.update_weighted(ctx, event, slate,
                                                     weight)
                        else:
                            instance.update(ctx, event, slate)
                        if dedup:
                            origin, oseq = event.provenance()
                            slate.advance_watermark(origin, oseq)
                    # Slate.touch + SlateManager.note_update, inlined:
                    # the version bump keys the size/encode caches, the
                    # dirty transition feeds the cache's dirty index.
                    slate.last_update_ts = ts
                    slate._version += 1
                    if not slate._dirty:
                        slate._dirty = True
                        listener = slate._dirty_listener
                        if listener is not None:
                            listener(slate, True)
                    if max_bytes is not None:
                        slate.check_size(max_bytes)
                    if write_through:
                        mgr._flush_slate(slate)
                    if mgr.pending_io_s > 0.0:
                        service += rt._charge_device(machine, mgr)
                    # Slate.estimated_bytes, inlined with its per-version
                    # cache discipline; the non-counter shape falls back
                    # to the method (which recomputes and caches alike).
                    if slate._size_version == slate._version:
                        sbytes = slate._size_bytes
                    else:
                        sbytes = _json_size_fast(slate._data)
                        if sbytes < 0:
                            sbytes = slate.estimated_bytes()
                        else:
                            slate._size_version = slate._version
                            slate._size_bytes = sbytes
                    service += (upd_s * instance.cost_factor
                                + byte_s * sbytes)
                    if muppet1:
                        service += ipc.cost(
                            event.size_bytes(), slate_bytes=sbytes,
                            output_bytes=sum(
                                e.size_bytes() for e in ctx.emitted))
                    if count > 1:
                        service += cont_s
                        rt._contention_events += 1
            if injector is not None and not skipped:
                factor = injector.cpu_factor(machine.name, clock._now)
                if factor > 1.0:
                    extra = service * (factor - 1.0)
                    service += extra
                    injector.note_gray_cpu(extra)
            # ---------------------------------------------------------------
            now = clock._now
            at = now + service if service > 0.0 else now
            if tail:
                return (at, _finish,
                        (worker, envelope, ctx.emitted, ctx.timers))
            heappush(heap, (at, 0, next(sim_seq), _finish, None,
                            (worker, envelope, ctx.emitted, ctx.timers)))
            return None

        def _deliver(machine: _Machine, envelope: _Envelope):  # hot-path
            if not machine.alive:
                handle_dead(machine, envelope)
                return None
            key = envelope.event.key
            fn = envelope.dest_fn
            item = (key, fn)
            pin = None
            if dedup:
                # Close the rebalance residual hazard (see
                # :meth:`schedule_add_machine`): an event that was in
                # flight — or parked in a coalescing buffer — while the
                # ring moved its key would update the old owner's
                # orphaned cache copy and lose the last-write-wins race.
                # Exactness cannot absorb that, so late arrivals
                # re-route to the current owner.
                target = destination_machine(envelope)
                if target is not None and target is not machine:
                    _send(envelope, machine.name)
                    return None
                if machine.replay_pins:
                    pin = machine.replay_pins.get(item)
            if (shedding and machine.pressure_tier >= TIER_OVERFLOW
                    and rt._divert_proactively(machine, envelope)):
                return None
            workers = machine.workers
            if pin is not None:
                # Replay ordering guard (see _Machine.replay_pins): a
                # queued replay pins its (key, fn) to one worker so no
                # fresh same-key event can overtake it via the spill
                # rule.
                worker = pin[0]
            elif not muppet2:
                worker = rt._muppet1_worker(machine, envelope)
                if worker is None:
                    # The ring moved this key (failure broadcast raced
                    # the send); re-route from scratch.
                    _send(envelope, machine.name)
                    return None
            elif not two_choice:
                worker = machine.dispatcher.choose_workers(key, fn, workers)
            else:
                # TwoChoiceDispatcher.choose_workers + the candidates
                # memo hit, inlined (stats identical by construction;
                # the miss path is the dispatcher's own candidates(),
                # which accounts itself).
                dispatcher = machine.dispatcher
                dstats = dispatcher.stats
                dstats.dispatched += 1
                if dispatcher.num_threads == 1:
                    dstats.queue_locks += 1
                    worker = workers[0]
                    if worker.current == item:
                        dstats.affinity_hits += 1
                    dstats.to_primary += 1
                else:
                    pair = dispatcher._memo.get(item)
                    if pair is None:
                        pair = dispatcher.candidates(key, fn)
                    else:
                        dstats.memo_hits += 1
                    dstats.queue_locks += 2
                    worker = workers[pair[0]]
                    if worker.current == item:
                        dstats.to_primary += 1
                        dstats.affinity_hits += 1
                    else:
                        second = workers[pair[1]]
                        if second.current == item:
                            dstats.to_secondary += 1
                            dstats.affinity_hits += 1
                            worker = second
                        elif (len(worker.queue._items)
                              >= dispatcher.significant_factor
                              * (len(second.queue._items) + 1)):
                            dstats.to_secondary += 1
                            dstats.spills += 1
                            worker = second
                        else:
                            dstats.to_primary += 1
            if tracing:
                trace_envelope("dispatch", machine, envelope,
                               worker=worker.index)
            # BoundedQueue.offer, inlined.
            queue = worker.queue
            qstats = queue.stats
            items = queue._items
            qstats.offered += 1
            max_size = queue.max_size
            if max_size is not None and len(items) >= max_size:
                qstats.rejected += 1
                overflow(machine, worker, envelope)
                return None
            items.append(envelope)
            qstats.accepted += 1
            depth = len(items)
            if depth > qstats.peak_depth:
                qstats.peak_depth = depth
            if (dedup and muppet2 and envelope.replayed
                    and not envelope.is_timer):
                rt._pin_replay(machine, worker, envelope)
            if tracing:
                trace_envelope("enqueue", machine, envelope,
                               worker=worker.index, depth=depth)
            if worker.busy:  # the saturated regime: no call frame
                return None
            return try_start(worker, True)

        def _finish(worker: _Worker, envelope: _Envelope,
                    outputs: List[Event],
                    timers: List[TimerRequest]):  # hot-path
            machine = worker.machine
            item = worker.current
            if item is not None:
                # try_start seeds pcounts[item] before it schedules this
                # finish, so plain indexing is safe.
                remaining = pcounts[item] - 1
                if remaining <= 0:
                    pcounts.pop(item, None)
                else:
                    pcounts[item] = remaining
            worker.busy = False
            worker.current = None
            machine.free_cores += 1
            if not machine.alive:
                counters.lost_failure += 1
                return None
            counters.processed += 1
            fn = envelope.dest_fn
            if fn in latency_ops and not envelope.is_timer:
                recorder = latency.get(fn)
                if recorder is None:
                    recorder = latency[fn] = LatencyRecorder()
                recorder.record(clock._now - envelope.birth_ts)
            if outputs:
                birth = envelope.birth_ts
                replayed = envelope.replayed
                from_name = machine.name
                ordinal = 0
                for out in outputs:
                    info = stream_info.get(out[0])
                    if info is None or info[2]:
                        stamped = streams.stamp(out, from_operator=True)
                        info = stream_info[stamped.sid]
                    else:
                        stamped = tuple_new(
                            Event, (out[0], out[1], out[2], out[3],
                                    next(info[0]), out[5], out[6]))
                    if dedup:
                        # Replay-stable identity: derived from the
                        # *input* event's provenance, not from the
                        # stream registry's publication seq (which keeps
                        # counting across replays). A deterministic
                        # operator re-derives the same (origin, oseq) on
                        # replay, so downstream watermarks recognize the
                        # duplicate.
                        origin, oseq = derive_origin(envelope.event, fn,
                                                     ordinal)
                        stamped = stamped.with_provenance(origin, oseq)
                    if tracing:
                        rt._trace_publish(envelope, stamped, ordinal)
                    counters.published += 1
                    for sub_name in info[1]:
                        env = obj_new(_Envelope)
                        env.event = stamped
                        env.birth_ts = birth
                        env.dest_fn = sub_name
                        env.is_timer = False
                        env.timer_payload = None
                        env.diverted = False
                        env.replayed = replayed
                        _send(env, from_name)
                    ordinal += 1
            if timers:
                for timer in timers:
                    schedule_timer(machine, envelope, timer)
            waiting = machine.waiting
            while machine.free_cores > 0 and waiting:
                next_worker = waiting.popleft()
                next_worker.waiting = False
                try_start(next_worker, False)
            if worker.queue._items:
                return try_start(worker, True)
            return None

        def _start_source(source: Source) -> None:
            iterator = source.events
            pending = [next(iterator, None)]

            def step(sim: Simulator):  # hot-path
                # Drain every event already due in one step, then sleep
                # until the next arrival — one wake-up per quiet gap,
                # returned as a tail so a quiescent gap advances without
                # heap traffic.
                event = pending[0]
                now = clock._now
                while event is not None:
                    if throttle is not None and throttle.paused:
                        counters.throttled += 1
                        pending[0] = event
                        return (now + throttle_check_s, step, None)
                    if event.ts > now:
                        pending[0] = event
                        return (event.ts, step, None)
                    _inject(event)
                    event = next(iterator, None)
                pending[0] = None
                return None

            self.sim.schedule_in(0.0, step)

        self._inject = _inject
        self._send = _send
        self._deliver = _deliver
        self._finish = _finish
        self._start_source = _start_source

    # -- cold feature hooks of the per-event path -------------------------------
    def _muppet1_worker(self, machine: _Machine,
                        envelope: _Envelope) -> Optional[_Worker]:
        """Muppet 1.0 routing: ``<key, function>`` hashes straight to the
        one owning worker; None when a failure broadcast moved the key
        between send and deliver."""
        ring = self._function_rings[envelope.dest_fn]
        wid = ring.lookup(route_key(envelope.event.key, envelope.dest_fn))
        worker = self._worker_by_id[wid]
        return worker if worker.machine is machine else None

    def _charge_device(self, machine: _Machine, mgr: SlateManager) -> float:
        """Queue the manager's accrued synchronous kv I/O behind the
        machine's storage device; returns the wait it adds."""
        io_s = mgr.take_pending_io()
        now = self.sim.now()
        done = max(now, machine.device_busy_until) + io_s
        machine.device_busy_until = done
        return done - now

    def _pin_replay(self, machine: _Machine, worker: _Worker,
                    envelope: _Envelope) -> None:
        """Count one more queued replay for its (key, fn) on ``worker``
        (see ``_Machine.replay_pins``)."""
        pin_key = (envelope.event.key, envelope.dest_fn)
        pin = machine.replay_pins.get(pin_key)
        if pin is None:
            machine.replay_pins[pin_key] = [worker, 1]
        else:
            pin[1] += 1

    def _unpin_replay(self, machine: _Machine,
                      item: Tuple[str, str]) -> None:
        """A queued replay for ``item`` starts executing. After the last
        one, the dispatcher's processing-affinity rule covers the rest
        of the window (``worker.current == item`` until ``_finish``)."""
        pin = machine.replay_pins.get(item)
        if pin is not None:
            pin[1] -= 1
            if pin[1] <= 0:
                del machine.replay_pins[item]

    def _dedup_skips(self, machine: _Machine, fn: str, event: Event,
                     slate: Slate) -> bool:
        """Effectively-once check of one replayed event against the
        slate's watermark; True when its effect is already there."""
        origin, oseq = event.provenance()
        skip = oseq <= slate.watermark(origin)
        if skip:
            # The slate already durably contains this event's effect
            # (the watermark persisted with the fields that include
            # it): skip the re-application. The slate read was still
            # paid for — dedup is not free.
            self.replay_journal.stats.deduped += 1
        else:
            self._replay_reapplied += 1
        if self._trace is not None:
            self._trace.emit(self.sim.now(), "dedup", machine=machine.name,
                             op=fn, key=event.key, origin=origin, oseq=oseq,
                             decision="skip" if skip else "reapply")
        return skip

    def _thin(self, machine: _Machine, fn: str,
              event: Event) -> Optional[float]:
        """Thinning decision for one update of a thinnable updater under
        pressure: the inverse-probability weight to apply it with, or
        None when it is thinned away."""
        keep, weight = self._thinner.decide(event.key)
        if not keep:
            # Thinned: skip the slate read and the update entirely —
            # that saved work is the whole point. Kept siblings carry
            # weight 1/p, so the counter stays unbiased (see
            # repro.shedding.thinning).
            self.counters.thinned += 1
            self.shedding.thinned += 1
            if self._trace is not None:
                origin, oseq = event.provenance()
                self._trace.emit(self.sim.now(), "shed",
                                 machine=machine.name, op=fn, key=event.key,
                                 outcome="thin", origin=origin, oseq=oseq)
            return None
        if weight > 1.0:
            self.shedding.kept_weighted += 1
            self.shedding.weight_applied += weight
        return weight

    def _divert_proactively(self, machine: _Machine,
                            envelope: _Envelope) -> bool:
        """Overflow tier: shed an arrival to the degraded stream *before*
        the queues fill, instead of waiting for hard queue-full
        rejections. True when the envelope was diverted."""
        shed_cfg = self._shed.config
        if (envelope.is_timer or envelope.diverted
                or shed_cfg.overflow_sid is None
                or machine.queue_depth_fraction() < shed_cfg.divert_fraction):
            return False
        self.shedding.diverted_proactive += 1
        self._note_overflow(machine.name, "diverted_proactive")
        self._divert(machine, envelope, shed_cfg.overflow_sid,
                     proactive=True)
        return True

    def _trace_envelope(self, kind: str, machine: _Machine,
                        envelope: _Envelope, **fields: Any) -> None:
        """Emit one span about an envelope at a machine (tracing on)."""
        origin, oseq = envelope.event.provenance()
        self._trace.emit(  # noqa: MUP005 -- every caller is behind the guard
            self.sim.now(), kind, machine=machine.name, fn=envelope.dest_fn,
            key=envelope.event.key, **fields, origin=origin, oseq=oseq)

    def _trace_execute(self, machine: _Machine, worker: _Worker,
                       envelope: _Envelope, spec: OperatorSpec) -> None:
        event = envelope.event
        origin, oseq = event.provenance()
        extra: Dict[str, Any] = {}
        if spec.kind == "update":
            # The kv-store cell this update touches — the join key that
            # lets reconstruct_chain follow the event through slate
            # flushes into replica writes.
            extra["updater"] = spec.name
            extra["row"], extra["column"] = SlateKey(
                spec.name, event.key).row_column()
        self._trace.emit(  # noqa: MUP005 -- the one caller is behind the guard
            self.sim.now(), "execute", machine=machine.name, op=spec.name,
            op_kind=spec.kind, key=event.key, worker=worker.index,
            timer=envelope.is_timer, replayed=envelope.replayed,
            origin=origin, oseq=oseq, **extra)

    def _trace_publish(self, envelope: _Envelope, stamped: Event,
                       ordinal: int) -> None:
        parent_origin, parent_oseq = envelope.event.provenance()
        child_origin, child_oseq = stamped.provenance()
        self._trace.emit(  # noqa: MUP005 -- the one caller is behind the guard
            self.sim.now(), "publish", sid=stamped.sid, op=envelope.dest_fn,
            ordinal=ordinal, parent_origin=parent_origin,
            parent_oseq=parent_oseq, origin=child_origin, oseq=child_oseq)

    def _schedule_timer(self, machine: _Machine, envelope: _Envelope,
                        timer: TimerRequest) -> None:
        fire_at = max(self.sim.now() + 1e-9, timer.at_ts)
        timer_event = Event(sid=f"!timer:{timer.updater}", ts=timer.at_ts,
                            key=timer.key)
        if self._dedup:
            # Each firing gets a unique runtime-local identity. Timer
            # invocations are never journaled or deduped themselves
            # (re-applying an update re-derives its timers), but their
            # *outputs* inherit provenance from this event — without a
            # unique oseq, outputs of distinct firings would collide.
            timer_event = timer_event.with_provenance(
                f"!timer:{timer.updater}", next(self._timer_ids))
        timer_env = _Envelope(timer_event, envelope.birth_ts, timer.updater,
                              is_timer=True, timer_payload=timer.payload)
        self.sim.schedule_call(fire_at, self._send,
                               timer_env, machine.name)

    # -- background processes ----------------------------------------------------
    def _schedule_flusher(self) -> None:
        period = self.config.flusher_period_s

        def tick(sim: Simulator) -> None:
            if self._timeline is not None:
                # Piggyback timeline sampling on this pre-existing tick:
                # no extra simulator events, so the step count (and with
                # it counter_report) is identical with the timeline on.
                self._sample_timeline(sim.now())
            for machine in self.machines.values():  # noqa: MUP003 -- single-threaded DES; machine insertion order is deterministic
                if not machine.alive:
                    continue
                io = 0.0
                for mgr in self._managers_of(machine):
                    mgr.flush_due()
                    io += mgr.take_pending_io()
                node = self.store.nodes.get(machine.name)
                if node is not None:
                    io += node.take_background_cost()
                if io > 0:
                    machine.device_busy_until = (
                        max(sim.now(), machine.device_busy_until) + io)
            sim.schedule_in(period, tick)

        self.sim.schedule_in(period, tick)

    def _sample_timeline(self, now: float) -> None:
        """Record one timeline sample (read-only over engine state)."""
        timeline = self._timeline
        assert timeline is not None
        for machine in self.machines.values():
            timeline.sample_machine(
                now, machine.name,
                queue_depth=sum(len(w.queue) for w in machine.workers),
                queue_peak=max((w.queue.stats.peak_depth
                                for w in machine.workers), default=0),
                dirty_slates=sum(m.cache.dirty_count()
                                 for m in self._managers_of(machine)),
                alive=machine.alive)
        for name, recorder in self.latency.items():
            timeline.sample_updater(now, name, recorder.samples)

    def _schedule_heartbeat(self) -> None:
        """Master-side liveness sweep (see ``SimConfig.heartbeat_s``).

        Each sweep declares any machine that is down but not yet known
        failed — same exclusion + broadcast + journal replay as the
        sender-side path, so a crash in a quiet traffic window still
        triggers replay before its journal entries age out. Retired
        machines are the planned-removal case and are skipped.
        """
        period = self.config.heartbeat_s
        assert period is not None

        def sweep(sim: Simulator) -> None:
            for name in sorted(self.machines):
                machine = self.machines[name]
                if not machine.alive and not machine.retired \
                        and name not in self._known_failed:
                    self._declare_machine_failed(name)
            sim.schedule_in(period, sweep)

        self.sim.schedule_in(period, sweep)

    def _schedule_epochs(self) -> None:
        """Periodic checkpoint-epoch barrier (effectively-once only)."""
        period = self.config.checkpoint_epoch_s

        def tick(sim: Simulator) -> None:
            self._run_checkpoint_epoch(sim.now())
            sim.schedule_in(period, tick)

        self.sim.schedule_in(period, tick)

    def _run_checkpoint_epoch(self, now: float) -> None:
        """One coordinated flush-then-prune barrier.

        Reuses the rebalance flush barrier: every live machine's dirty
        slates — watermarks embedded in the same blob — go to the
        kv-store, buffered batches are forced onto the wire first so
        nothing sits in a coalescing buffer across the barrier. The
        master counts the epoch; then journal entries recorded before
        the barrier *two epochs ago* are pruned. The two-epoch lag
        covers effects still in flight or queued at a barrier: an entry
        sent before tick[k-2] has been applied (or replayed) and
        flushed by tick[k-1], provided delivery + queueing latency stays
        under one epoch period. A backlog deeper than one period is the
        residual hazard — a pruned entry can no longer be replayed,
        degrading that event to at-most-once.
        """
        self._flush_all_batches()
        self._rebalance_flush()
        self.master.coordinate_epoch()
        self._epoch_ticks.append(now)
        if len(self._epoch_ticks) == 3:
            cutoff = self._epoch_ticks[0]
            self._epoch_pruned += self.replay_journal.prune_before(cutoff)

    def _schedule_throttle_monitor(self) -> None:
        throttle = self.config.throttle
        assert throttle is not None
        period = THROTTLE_CHECK_S

        def tick(sim: Simulator) -> None:
            worst = max((m.queue_depth_fraction()
                         for m in self.machines.values() if m.alive),
                        default=0.0)
            throttle.observe(worst, sim.now())
            sim.schedule_in(period, tick)

        self.sim.schedule_in(period, tick)

    def _updater_p99(self, window: int) -> float:
        """Worst per-updater p99 over each updater's trailing samples."""
        worst = 0.0
        for recorder in self.latency.values():  # noqa: MUP003 -- max() is order-independent
            samples = recorder.samples
            if samples:
                worst = max(worst, percentile(samples[-window:], 0.99))
        return worst

    def _schedule_shedding_monitor(self) -> None:
        """The backpressure controller's observation tick.

        Each period, every live machine's pressure signals feed the
        controller; the resulting tier lands on ``machine.pressure_tier``
        for the per-event hot paths to read. Any machine at the throttle
        tier pauses the sources (Section 5 source throttling — never
        mid-workflow, which can deadlock).
        """
        shed = self._shed
        assert shed is not None
        cfg = shed.config
        period = cfg.check_period_s

        def tick(sim: Simulator) -> None:
            p99 = (self._updater_p99(cfg.p99_window)
                   if cfg.p99_budget_s is not None else 0.0)
            throttle_wanted = False
            for name in sorted(self.machines):
                machine = self.machines[name]
                if not machine.alive:
                    continue
                dirty = 0
                if cfg.dirty_slates_high is not None:
                    dirty = sum(m.cache.dirty_count()
                                for m in self._managers_of(machine))
                tier = shed.observe(
                    name,
                    PressureSignals(
                        queue_fraction=machine.queue_depth_fraction(),
                        dirty_slates=dirty, p99_s=p99),
                    sim.now())
                machine.pressure_tier = tier
                if tier >= TIER_THROTTLE:
                    throttle_wanted = True
            throttle = self.config.throttle
            if throttle is not None:
                if throttle_wanted:
                    throttle.pause(sim.now())
                else:
                    throttle.resume(sim.now())
            sim.schedule_in(period, tick)

        self.sim.schedule_in(period, tick)

    # -- elastic membership (Section 5 "Changing the Number of Machines
    # on the Fly", implemented as an extension) --------------------------------
    def schedule_add_machine(self, at: float, name: str,
                             cores: int = 4) -> None:
        """Add a machine to the worker ring at simulated time ``at``.

        The paper calls out the hard part: moving a key while its slate
        has unflushed changes on the old owner would need the slate
        "replicated at both A and B". The legacy answer (and still the
        default when ``SimConfig.migration`` is None) is a *rebalance
        barrier*: immediately before the ring change, every dirty slate
        is flushed to the key-value store. The new owner then simply
        misses its cache and refetches — the normal Section 4.2 path.
        With migration configured, the join instead runs the
        five-phase incremental handoff (snapshot → delta_stream →
        cutover → ack → release): donors stream changelogs to the
        joiner while still owning the keys, and only the cutover
        instant flips the ring. The co-located kv-store ring stays
        fixed either way (the paper's Cassandra cluster is managed
        separately).

        Residual hazard of the legacy path (bounded, not eliminated):
        an event already *in flight* to the old owner when the ring
        changes still updates the old owner's now-orphaned cache copy,
        and that update can lose the last-write-wins race against the
        new owner's flushes — at most the in-flight window's worth of
        updates, typically zero to a few events. The incremental path
        shrinks that window to the final cutover delta but shares the
        same in-flight bound.
        """
        def join(sim: Simulator) -> None:
            if self._migration is not None:
                existing = self.machines.get(name)
                if existing is not None and not existing.retired:
                    return
                if existing is None:
                    self._construct_machine(name, cores)
                self._request_scale("join", name, cores=cores)
                return
            self._legacy_join(name, cores)

        self.sim.schedule(at, join, priority=-1)

    def schedule_remove_machine(self, at: float, name: str) -> None:
        """Retire a machine from the worker ring at simulated time ``at``.

        The machine stays constructed (and alive) but leaves the ring:
        its keys move to the survivors — via live handoff when
        ``SimConfig.migration`` is set, via the legacy flush barrier
        otherwise — and it becomes the first re-admission candidate for
        a later scale-up. Retirement is planned downsizing, not a
        failure: nothing is lost, nothing replays.
        """
        def leave(sim: Simulator) -> None:
            if self._migration is not None:
                self._request_scale("retire", name)
            else:
                self._retire_legacy(name)

        self.sim.schedule(at, leave, priority=-1)

    def _construct_machine(self, name: str, cores: int) -> "_Machine":
        """Build a machine (workers, dispatcher, manager) *without* ring
        membership — the caller admits it to the ring: the seed machines
        at construction, a join at once (legacy join) or at migration
        cutover. Joining machines get no co-located kv node: the store
        ring is fixed at construction, matching the paper's separately
        managed Cassandra cluster.
        """
        machine = _Machine(name, cores)
        cfg = self.config
        if cfg.engine == ENGINE_MUPPET2:
            threads = cfg.threads_per_machine or cores
            machine.central_mgr = self._new_manager(
                cfg.cache_slates_per_machine, owner=name)
            if cfg.two_choice:
                machine.dispatcher = TwoChoiceDispatcher(
                    threads, memoize=cfg.memoize_routing)
            else:
                machine.dispatcher = SingleChoiceDispatcher(
                    threads, memoize=cfg.memoize_routing)
            machine.shared_instances = {
                s.name: s.instantiate() for s in self.app.operators()
            }
            for i in range(threads):
                machine.workers.append(_Worker(
                    wid=f"{name}/t{i}", machine=machine,
                    index=i, function=None,
                    queue_capacity=cfg.queue_capacity,
                    mgr=machine.central_mgr))
        else:
            # Muppet 1.0: worker process pairs per function.
            overrides = cfg.workers_per_function or {}
            total = sum(
                overrides.get(s.name,
                              cfg.workers_per_function_per_machine)
                for s in self.app.operators())
            per_worker_cache = max(
                1, cfg.cache_slates_per_machine // max(1, total))
            index = 0
            for op_spec in self.app.operators():
                count = overrides.get(
                    op_spec.name,
                    cfg.workers_per_function_per_machine)
                for j in range(count):
                    worker = _Worker(
                        wid=f"{name}/{op_spec.name}#{j}",
                        machine=machine, index=index,
                        function=op_spec.name,
                        queue_capacity=cfg.queue_capacity,
                        mgr=self._new_manager(per_worker_cache,
                                              owner=name))
                    # Each 1.0 worker loads its own copy of the code.
                    machine.shared_instances[worker.wid] = (
                        op_spec.instantiate())
                    machine.workers.append(worker)
                    self._worker_by_id[worker.wid] = worker
                    index += 1
        self.machines[name] = machine
        if ((self._autoscaler is not None or self._migration is not None)
                and name not in self._probed_machines):
            # Elastic machines get queue/slate probes like seed machines;
            # legacy joins skip this to keep non-elastic metrics snapshots
            # identical to the seed.
            self._probed_machines.add(name)
            self.metrics.register_group(f"queues.{name}",
                                        self._make_queue_probe(machine))
            self.metrics.register_group(f"slates.{name}",
                                        self._make_slate_probe(machine))
        return machine

    def _legacy_join(self, name: str, cores: int) -> None:
        """Flush-barrier join: the original Section 4.3 re-admission."""
        existing = self.machines.get(name)
        if existing is not None and not existing.retired:
            return
        self._rebalance_flush()
        machine = (existing if existing is not None
                   else self._construct_machine(name, cores))
        machine.retired = False
        if self.config.engine == ENGINE_MUPPET2:
            self._machine_ring.add(name)
        else:
            for worker in machine.workers:
                if worker.function is not None:
                    self._function_rings[worker.function].add(worker.wid)
        self._join_order.append(name)
        if self._trace is not None:
            self._trace.emit(self.sim.now(), "ring_change",
                             change="join", machine=name)
        self._reroute_queued_after_ring_change()

    def _retire_legacy(self, name: str) -> None:
        """Flush-barrier retirement (no migration configured)."""
        machine = self.machines.get(name)
        if (machine is None or machine.retired or not machine.alive
                or (self.config.engine == ENGINE_MUPPET2
                    and name not in self._machine_ring.members)):
            return
        self._rebalance_flush()
        if self.config.engine == ENGINE_MUPPET2:
            self._machine_ring.remove(name)
        else:
            for worker in machine.workers:
                if worker.function is not None:
                    self._function_rings[worker.function].remove(worker.wid)
        machine.retired = True
        if self._trace is not None:
            self._trace.emit(self.sim.now(), "ring_change",
                             change="retire", machine=name)
        self._reroute_queued_after_ring_change()
        self._drop_retired_copies(name)

    # -- elastic scaling (autoscaler + live migration) ---------------------
    def _elastic_stats(self) -> Dict[str, Any]:
        """The ``elastic`` metrics family: cluster size, autoscaler
        decisions, and migration handoff accounting."""
        live = (self._machine_ring.live_members
                if self.config.engine == ENGINE_MUPPET2
                else {n for n, m in self.machines.items()
                      if m.alive and not m.retired})
        stats: Dict[str, Any] = {
            "machines_live": len(live),
            "machines_retired": sum(
                1 for m in self.machines.values() if m.retired),
            "pending_requests": len(self._pending_scale),
        }
        if self._autoscaler is not None:
            for key, value in self._autoscaler.counters.as_dict().items():
                stats[f"autoscaler.{key}"] = value
            stats["autoscaler.queue_ewma"] = self._autoscaler.smoothed_queue
        if self._migration is not None:
            for key, value in self._migration.counters.as_dict().items():
                stats[f"migration.{key}"] = value
        return stats

    def _central_manager(self, name: str) -> Optional[SlateManager]:
        """A machine's central slate manager (None for unknown names)."""
        machine = self.machines.get(name)
        return None if machine is None else machine.central_mgr

    def route_key_of(self, slate_key: SlateKey) -> str:
        """The ring routing key a slate's events hash under."""
        return route_key(slate_key.key, slate_key.updater)

    def _kill_machine_now(self, name: str) -> None:
        """Crash a machine at the current instant (migration chaos)."""
        self._make_failure(name)(self.sim)

    def _drop_retired_copies(self, name: str) -> None:
        """Flush-and-drop every cache copy a retired machine still holds,
        and cold-start its dispatcher so a later re-admission is
        indistinguishable from a fresh join."""
        machine = self.machines.get(name)
        if machine is None or not machine.alive:
            return
        io = 0.0
        for mgr in self._managers_of(machine):
            mgr.flush_all_dirty()
            io += mgr.take_pending_io()
            for slate_key in list(mgr.cache.resident()):
                mgr.drop(slate_key)
        if io > 0:
            machine.device_busy_until = (
                max(self.sim.now(), machine.device_busy_until) + io)
        if machine.dispatcher is not None:
            machine.dispatcher.reset()

    def _request_scale(self, kind: str, name: str, cores: int = 4) -> None:
        """Route one join/retire request to the configured mechanism.

        With migration configured, requests serialize: one handoff is in
        flight at a time and the rest queue (FIFO), which keeps every
        ownership change attributable to exactly one migration epoch.
        """
        if self._migration is None:
            if kind == "join":
                self._legacy_join(name, cores)
            else:
                self._retire_legacy(name)
            return
        if self._migration.active is not None:
            self._pending_scale.append((kind, name))
            return
        self._start_migration(kind, name)

    def _start_migration(self, kind: str, name: str) -> None:
        migration = self._migration
        assert migration is not None
        machine = self.machines.get(name)
        if machine is None or not machine.alive:
            return
        if kind == "join":
            if name in self._machine_ring.members:
                return
        else:
            if machine.retired or name not in self._machine_ring.live_members:
                return  # failed machines heal via replay, not migration
        migration.begin(kind, name)

    def _drain_scale_queue(self) -> None:
        migration = self._migration
        if migration is None:
            return
        while self._pending_scale and migration.active is None:
            kind, name = self._pending_scale.popleft()
            self._start_migration(kind, name)

    def _apply_migration_ring_change(self, mig: "MigrationState") -> None:
        """The coordinator's cutover hook: flip the ring, re-address the
        journal, clean up a retiring donor. Runs at one simulated
        instant inside the cutover phase."""
        machine = self.machines[mig.machine]
        if mig.kind == "join":
            machine.retired = False
            self._machine_ring.add(mig.machine)
            self._join_order.append(mig.machine)
            change = "join"
        else:
            machine.retired = True
            self._machine_ring.remove(mig.machine)
            change = "retire"
        if self._trace is not None:
            self._trace.emit(self.sim.now(), "ring_change",
                             change=change, machine=mig.machine)
        journal = self.replay_journal
        donors = set(mig.donors())
        if journal is not None and donors:
            def resolve(dest: str, payload: Any) -> Optional[str]:
                if dest not in donors:
                    return None
                target = self._destination_machine(payload)
                return None if target is None else target.name
            changed = journal.readdress(resolve)
            if self._migration is not None:
                # readdress() already counts into journal stats; mirror
                # into the migration family so bench E24 sees it.
                self._migration.counters.journal_readdressed += changed
        if mig.kind == "retire":
            self._drop_retired_copies(mig.machine)

    def _migration_finished(self, mig: "MigrationState",
                            completed: bool) -> None:
        """The coordinator's completion/abort hook."""
        if mig.kind == "join" and not completed:
            machine = self.machines.get(mig.machine)
            if (machine is not None
                    and mig.machine not in self._machine_ring.members):
                # The joiner never entered the ring; park it as a
                # re-admission candidate for the next scale-up.
                machine.retired = True
        self._drain_scale_queue()

    def _schedule_autoscaler(self) -> None:
        """The autoscaler's observation tick (mirrors the shedding
        monitor): sample cluster health each period, execute any
        resulting decision through the scaling machinery."""
        scaler = self._autoscaler
        assert scaler is not None
        cfg = scaler.config
        period = cfg.check_period_s

        def tick(sim: Simulator) -> None:
            live = sorted(self._machine_ring.live_members)
            alive = [self.machines[n] for n in live
                     if self.machines[n].alive]
            worst = max((m.queue_depth_fraction() for m in alive),
                        default=0.0)
            p99 = (self._updater_p99(256)
                   if cfg.p99_budget_s is not None else None)
            dirty = 0
            if cfg.dirty_backlog_high is not None:
                dirty = max(
                    (sum(mg.cache.dirty_count()
                         for mg in self._managers_of(m)) for m in alive),
                    default=0)
            decision = scaler.observe(
                sim.now(), worst_queue_fraction=worst, p99_s=p99,
                dirty_backlog=dirty, live_machines=len(live))
            if decision is not None:
                self._execute_scale_decision(decision)
            sim.schedule_in(period, tick)

        self.sim.schedule_in(period, tick)

    def _execute_scale_decision(self, decision: ScaleDecision) -> None:
        scaler = self._autoscaler
        assert scaler is not None
        if self._migration is not None and (
                self._migration.active is not None or self._pending_scale):
            # A handoff is in flight (or queued): don't pile decisions on
            # top — the EWMA will re-fire if pressure persists.
            scaler.counters.blocked_migration += 1
            return
        cores = scaler.config.cores
        if decision.direction == "grow":
            for _ in range(decision.count):
                name = self._next_join_candidate()
                if name not in self.machines:
                    self._construct_machine(name, cores)
                self._request_scale("join", name, cores=cores)
        else:
            for _ in range(decision.count):
                name = self._pick_retire_victim()
                if name is None:
                    return
                self._request_scale("retire", name)

    def _claimed_for_scaling(self) -> Set[str]:
        claimed = {n for _, n in self._pending_scale}
        if self._migration is not None and self._migration.active is not None:
            claimed.add(self._migration.active.machine)
        return claimed

    def _next_join_candidate(self) -> str:
        """Pick the next machine to admit: retired machines re-admit
        first (their probes and workers already exist), then fresh
        ``e###`` names from the elastic sequence."""
        claimed = self._claimed_for_scaling()
        for name in sorted(self.machines):
            machine = self.machines[name]
            if machine.retired and machine.alive and name not in claimed:
                return name
        while True:
            name = f"e{next(self._elastic_seq):03d}"
            if name not in self.machines:
                return name

    def _pick_retire_victim(self) -> Optional[str]:
        """Pick the machine to retire: last joined leaves first (LIFO —
        elastic machines drain before seed machines), falling back to
        the lexicographically last live member."""
        claimed = self._claimed_for_scaling()
        live = self._machine_ring.live_members
        for name in reversed(self._join_order):
            if name in live and name not in claimed:
                return name
        candidates = sorted(n for n in live if n not in claimed)
        if len(candidates) <= 1:
            return None
        return candidates[-1]

    def _reroute_queued_after_ring_change(self) -> None:
        """Move queued events whose keys changed owner to the new owner.

        Without this, a deep backlog queued at the old owner would keep
        updating its orphaned cache copy while fresh events hit the new
        owner — divergence far beyond the in-flight window under load.
        """
        # Batched events are part of that backlog too: push them onto
        # the wire now so nothing lingers addressed to the old owner.
        self._flush_all_batches()
        for machine in list(self.machines.values()):
            if not machine.alive:
                continue
            # Pins are rebuilt below from the envelopes that stay; moved
            # replays re-pin at their new owner on re-delivery.
            machine.replay_pins.clear()
            for worker in machine.workers:
                kept: List[_Envelope] = []
                for envelope in worker.queue.drain():
                    target = self._destination_machine(envelope)
                    moved = target is None or target is not machine
                    if not moved and self.config.engine == ENGINE_MUPPET1:
                        ring = self._function_rings[envelope.dest_fn]
                        wid = ring.lookup(route_key(envelope.event.key,
                                                    envelope.dest_fn))
                        moved = wid != worker.wid
                    if moved:
                        self._send(envelope, machine.name)
                    else:
                        kept.append(envelope)
                for envelope in kept:
                    worker.queue.offer(envelope)
                    if (self._is_muppet2 and self._dedup
                            and envelope.replayed and not envelope.is_timer):
                        self._pin_replay(machine, worker, envelope)

    def _rebalance_flush(self) -> None:
        """Flush every dirty slate cluster-wide before a ring change, so
        no key moves while its freshest state is only in a cache."""
        for machine in self.machines.values():  # noqa: MUP003, MUP010 -- single-threaded DES; machine insertion order is deterministic
            if not machine.alive:
                continue
            io = 0.0
            for mgr in self._managers_of(machine):
                mgr.flush_all_dirty()
                io += mgr.take_pending_io()
            if io > 0:
                machine.device_busy_until = (
                    max(self.sim.now(), machine.device_busy_until) + io)

    # -- failures ---------------------------------------------------------------
    def _make_failure(self, machine_name: str):
        def kill(sim: Simulator) -> None:
            machine = self.machines.get(machine_name)
            if machine is None:
                raise ConfigurationError(
                    "crash fault targets unknown machine "
                    f"{machine_name!r}; cluster has "
                    f"{sorted(self.machines)}")
            if not machine.alive:
                return
            machine.alive = False
            if self._failure_time is None:
                self._failure_time = sim.now()
            # Events still buffered for this machine are as dead as its
            # queues: flush them now so they are counted lost (and the
            # failure broadcast fires) instead of lingering.
            self._flush_batches_to(machine_name)
            machine.replay_pins.clear()
            for worker in machine.workers:
                lost = worker.queue.drain()
                self.counters.lost_failure += len(lost)
                if worker.mgr is not machine.central_mgr:
                    worker.mgr.crash()
            if machine.central_mgr is not None:
                machine.central_mgr.crash()
            if self.config.kill_kv_on_machine_failure \
                    and machine_name in self.store.nodes:
                # Elastic machines (joined after boot) host workers only;
                # kv membership is fixed at the seed spec.
                self.store.mark_down(machine_name)

        return kill

    def _make_recovery(self, machine_name: str):
        """The full machine-recovery path — the Section 4.3 gap closed.

        The paper excludes a dead machine from the ring "until operator
        intervention" and leaves recovery as future work. Here the
        revived machine (1) restarts its workers with cold caches,
        (2) brings its co-located kv node back, draining hinted handoff,
        (3) reports to the master, which broadcasts recovery exactly as
        it broadcasts failure (one report hop + one broadcast hop), and
        (4) rejoins the shared hash ring behind the same rebalance
        barrier as elastic joins: survivors flush dirty slates first, so
        keys that move back re-hydrate from fresh kv-store state through
        the ordinary Section 4.2 cache-miss path.
        """

        def revive(sim: Simulator) -> None:
            machine = self.machines.get(machine_name)
            if machine is None or machine.alive:
                return
            machine.alive = True
            # Workers still mid-service when the machine died have their
            # _finish callbacks pending; count them as busy so the core
            # ledger stays consistent whichever order things resolve.
            busy = sum(1 for w in machine.workers if w.busy)
            machine.free_cores = machine.cores - busy
            machine.waiting.clear()
            for worker in machine.workers:
                if not worker.busy:
                    worker.waiting = False
            for mgr in self._managers_of(machine):
                mgr.revive()
            if self.config.kill_kv_on_machine_failure:
                node = self.store.nodes.get(machine_name)
                if node is not None and node.is_down:
                    self.store.mark_up(machine_name)
            self._recoveries += 1
            latency = self.cluster.network.latency_s

            def broadcast(sim2: Simulator) -> None:
                if not machine.alive:
                    return  # crashed again before the broadcast landed
                self.master.report_recovery(machine_name)
                self._known_failed.discard(machine_name)
                # Survivors flush before the ring re-admits the machine,
                # so keys that move back re-hydrate from fresh kv state
                # (the barrier schedule_add_machine also takes).
                self._rebalance_flush()
                self._machine_ring.restore(machine_name)
                for ring in self._function_rings.values():  # noqa: MUP010 -- built once at construction; per-ring restores commute
                    for worker in machine.workers:
                        ring.restore(worker.wid)
                if self._trace is not None:
                    self._trace.emit(sim2.now(), "ring_change",
                                     change="restore", machine=machine_name)
                self._reroute_queued_after_ring_change()

            # Report to master (one hop) + broadcast to workers (one
            # hop) — symmetric to failure reporting.
            self.sim.schedule_in(2 * latency, broadcast, priority=-1)

        return revive

    def _make_kv_down(self, machine_name: str):
        """A transient outage of one co-located kv node (machine up)."""

        def down(sim: Simulator) -> None:
            node = self.store.nodes.get(machine_name)
            if node is not None and not node.is_down:
                self.store.mark_down(machine_name)

        return down

    def _make_kv_up(self, machine_name: str):
        def up(sim: Simulator) -> None:
            node = self.store.nodes.get(machine_name)
            if node is not None and node.is_down:
                self.store.mark_up(machine_name)

        return up

    def _managers_of(self, machine: _Machine) -> List[SlateManager]:
        """The machine's slate managers, in worker order (never a set:
        what iterates them writes to the kv-store)."""
        if machine.central_mgr is not None:
            return [machine.central_mgr]
        return [w.mgr for w in machine.workers]

    # -- results ---------------------------------------------------------------
    def slate(self, updater: str, key: str) -> Optional[Dict[str, Any]]:
        """Read a slate's final contents from cache, else the kv-store.

        Mirrors the HTTP slate fetch (Section 4.4): the cache answer wins
        because it is fresher than the durable store. When several caches
        hold a copy (a survivor's orphaned copy after a failover-and-
        recover cycle), the most recently updated one wins.
        """
        slate_key = SlateKey(updater, key)
        best = None
        for machine in self.machines.values():
            for mgr in self._managers_of(machine):
                slate = mgr.cache.peek(slate_key)
                if slate is not None and (
                        best is None
                        or slate.last_update_ts > best.last_update_ts):
                    best = slate
        if best is not None:
            return best.as_dict()
        try:
            result = self.store.read(key, updater)
        except Exception:
            return None
        if result.value is None:
            return None
        from repro.slates.codec import DEFAULT_CODEC, split_watermarks

        fields, _ = split_watermarks(DEFAULT_CODEC.decode(result.value))
        return fields

    def slates_of(self, updater: str,
                  read_through: bool = False) -> Dict[str, Dict[str, Any]]:
        """All cached slates of one updater (post-run inspection).

        Freshest copy wins when several caches hold the same slate —
        after a failover-and-recover cycle, survivors retain orphaned
        (stale) copies of keys that moved back to the revived owner.

        With ``read_through=True`` the kv-store's column is scanned too,
        so slates that were flushed and then dropped from every cache
        (a full-rehydration cutover whose keys saw no later traffic)
        still appear; a resident copy only loses to the store when the
        store's write is fresher.
        """
        found: Dict[str, Tuple[float, Dict[str, Any]]] = {}
        for machine in self.machines.values():
            for mgr in self._managers_of(machine):
                for slate_key in mgr.cache.resident():
                    if slate_key.updater != updater:
                        continue
                    slate = mgr.cache.peek(slate_key)
                    if slate is None:
                        continue
                    known = found.get(slate_key.key)
                    if known is None or slate.last_update_ts > known[0]:
                        found[slate_key.key] = (slate.last_update_ts,
                                                slate.as_dict())
        if read_through and self.store is not None:
            from repro.slates.codec import DEFAULT_CODEC, split_watermarks

            for row, cell in self.store.column_cells(updater).items():
                known = found.get(row)
                if known is not None and known[0] >= cell.write_ts:
                    continue
                fields, _ = split_watermarks(DEFAULT_CODEC.decode(cell.value))
                found[row] = (cell.write_ts, fields)
        return {key: contents for key, (_, contents) in found.items()}

    def memory_mb_per_machine(self) -> float:
        """Average resident MB per machine: code copies + slate caches.

        Muppet 1.0 loads the code once per worker process; 2.0 loads it
        once per machine (Section 4.5's first limitation).
        """
        total = 0.0
        for machine in self.machines.values():
            if self.config.engine == ENGINE_MUPPET2:
                total += OPERATOR_CODE_MB
                if machine.central_mgr is not None:
                    total += machine.central_mgr.cache.total_bytes() / 1e6
            else:
                total += OPERATOR_CODE_MB * len(machine.workers)
                total += sum(w.mgr.cache.total_bytes()
                             for w in machine.workers) / 1e6
        return total / max(1, len(self.machines))

    def _robustness_counters(self) -> RobustnessCounters:
        """Aggregate recovery/retry/chaos accounting for the report."""
        rc = RobustnessCounters(recoveries=self._recoveries)
        for machine in self.machines.values():
            for mgr in self._managers_of(machine):
                rc.rehydrated_slates += mgr.stats.rehydrated
                rc.kv_retries += mgr.stats.kv_retries
                rc.kv_backoff_s += mgr.stats.kv_backoff_s
                rc.fail_open_reads += mgr.stats.fail_open_reads
                rc.fail_open_writes += mgr.stats.fail_open_writes
        if self._injector is not None:
            stats = self._injector.stats
            rc.gray_slow_s = stats.gray_slow_s
            rc.dropped_injected = stats.dropped_messages
            rc.lost_partition = stats.lost_partition
            rc.delayed_injected = stats.delayed_messages
            rc.injected_delay_s = stats.injected_delay_s
        rc.hints_stored = self.store.hints_stored
        rc.hints_delivered = self.store.hints_delivered
        rc.hints_evicted = self.store.hints_evicted
        rc.hints_pending = self.store.pending_hints()
        if self.replay_journal is not None:
            rc.replay_deduped = self.replay_journal.stats.deduped
        rc.replay_reapplied = self._replay_reapplied
        rc.checkpoint_epochs = self.master.stats.checkpoint_epochs
        rc.epoch_pruned = self._epoch_pruned
        return rc

    def _report(self, duration_s: float) -> SimReport:
        all_latencies = LatencyRecorder()
        by_updater: Dict[str, LatencySummary] = {}
        for name, recorder in self.latency.items():  # noqa: MUP003 -- single-threaded DES; operator insertion order is deterministic
            if len(recorder):
                by_updater[name] = recorder.summary()
                all_latencies.extend(recorder.samples)
                histogram = self.metrics.histogram(f"latency.{name}")
                if histogram.count == 0:
                    recorder.fill_histogram(histogram)
        dispatch = self._dispatch_stats()
        queue_peak = 0
        for machine in self.machines.values():  # noqa: MUP003 -- max() is order-independent
            for worker in machine.workers:
                queue_peak = max(queue_peak, worker.queue.stats.peak_depth)
        return SimReport(
            engine=self.config.engine,
            duration_s=duration_s,
            counters=self.counters,
            latency=(all_latencies.summary() if len(all_latencies) else None),
            latency_by_updater=by_updater,
            throughput=ThroughputReport(self.counters.processed, duration_s),
            dispatch_stats=dispatch,
            master_stats=asdict(self.master.stats),
            queue_peak_depth=queue_peak,
            slate_contention_events=self._contention_events,
            max_workers_per_slate=self._max_workers_per_slate,
            failure_detection_s=self._detection_time,
            throttle_paused_s=(self.config.throttle.paused_time_s
                               if self.config.throttle else 0.0),
            memory_mb_per_machine=self.memory_mb_per_machine(),
            kv_stats=self.store.stats_by_node(),
            device_stats={name: node.device.stats.as_dict()
                          for name, node in sorted(self.store.nodes.items())},
            steps=self.sim.steps,
            robustness=self._robustness_counters(),
            dataplane=self.dataplane,
            replay=(ReplayStats(**asdict(self.replay_journal.stats))
                    if self.replay_journal is not None else ReplayStats()),
            shedding=self.shedding,
            metrics=self.metrics.family_snapshot(),
            timeline_data=(self._timeline.as_dict()
                           if self._timeline is not None else None),
        )


def create_runtime(
    app: Application,
    cluster: ClusterSpec,
    config: Optional[SimConfig] = None,
    sources: Iterable[Source] = (),
    failures: Union[Iterable[Tuple[float, str]], FaultSchedule] = (),
    tracer: Optional[Tracer] = None,
) -> SimRuntime:
    """Build a :class:`SimRuntime` — the constructor under the name
    ``bench/`` imports. There is nothing to choose between any more."""
    return SimRuntime(app, cluster, config, sources, failures, tracer)
