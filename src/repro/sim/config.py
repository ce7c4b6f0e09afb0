"""SimConfig: the knobs of a simulated Muppet deployment — one flat
dataclass, constructed by keyword everywhere (tests, campaigns,
``bench/``)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.elastic import AutoscalerConfig, MigrationConfig
from repro.errors import ConfigurationError
from repro.muppet.queues import OverflowPolicy, SourceThrottle
from repro.shedding.controller import SheddingConfig
from repro.sim.costs import CostModel
from repro.slates.manager import FlushPolicy

ENGINE_MUPPET1 = "muppet1"
ENGINE_MUPPET2 = "muppet2"


@dataclass
class SimConfig:
    """Tunable knobs of a simulated Muppet deployment.

    Attributes mirror the paper's configuration surface: engine version,
    queue limits and overflow policy, slate cache size and flush interval,
    and the Muppet 1.0 worker layout versus the Muppet 2.0 thread pool.
    A value or pair of values the engine would ignore raises
    :class:`~repro.errors.ConfigurationError` here, and nothing a caller
    set is rewritten.
    """

    engine: str = ENGINE_MUPPET2
    queue_capacity: int = 5_000
    overflow: OverflowPolicy = field(default_factory=OverflowPolicy.drop)
    costs: CostModel = field(default_factory=CostModel)
    cache_slates_per_machine: int = 100_000
    flush_policy: FlushPolicy = field(default_factory=lambda: FlushPolicy.every(1.0))
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
    #: Only ``delivery_semantics="at-least-once"`` takes one (0.25 s
    #: when left unset).
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
    #: Data-plane batching: coalesce up to this many events per
    #: (source machine, destination machine) link into one network
    #: envelope, paying the per-message latency once and the payload
    #: bandwidth for the combined bytes. 0 (the default) disables
    #: batching — every event ships alone, the pre-batching behaviour.
    batch_max_events: int = 0
    #: How long a partially-filled batch may linger before it is
    #: shipped anyway; needs ``batch_max_events > 0``. 0 coalesces only
    #: events sent at the same simulated instant.
    batch_linger_s: float = 0.0
    #: Opt-in structured event tracing (see :mod:`repro.obs.trace`).
    #: Off by default: the engine then holds no tracer at all and every
    #: emission site is one ``is not None`` check — the no-op path the
    #: ``obs_overhead`` cell of ``perf_baseline`` budgets at 2%. On, spans
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
        if self.batch_linger_s > 0 and self.batch_max_events == 0:
            raise ConfigurationError(
                f"batch_linger_s={self.batch_linger_s!r} does nothing "
                "with batching off; set batch_max_events > 0")
        # A zero period re-arms at the same simulated instant: run()
        # would never advance the clock past it.
        if self.flusher_period_s <= 0:
            raise ConfigurationError(
                "flusher_period_s must be > 0 seconds, "
                f"got {self.flusher_period_s!r}")
        if self.retry_delay_s <= 0:
            raise ConfigurationError(
                "retry_delay_s must be > 0 seconds, "
                f"got {self.retry_delay_s!r}")
        if self.threads_per_machine is not None:
            if self.threads_per_machine < 1:
                raise ConfigurationError(
                    "threads_per_machine must be >= 1 (or None for the "
                    f"core count), got {self.threads_per_machine}")
            if self.engine != ENGINE_MUPPET2:
                raise ConfigurationError(
                    "threads_per_machine sizes the muppet2 thread pool; "
                    "muppet1 takes workers_per_function[_per_machine]")
        if (self.workers_per_function is not None
                and self.engine != ENGINE_MUPPET1):
            raise ConfigurationError(
                "workers_per_function lays out muppet1 worker processes; "
                "muppet2 takes threads_per_machine")
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
        if self.delivery_semantics == "at-least-once":
            if self.replay_horizon_s is None:
                self.replay_horizon_s = 0.25
        elif self.replay_horizon_s is not None:
            raise ConfigurationError(
                "replay_horizon_s belongs to delivery_semantics="
                f"'at-least-once', got {self.delivery_semantics!r}: "
                "at-most-once keeps no journal, and effectively-once "
                "prunes its journal at checkpoint epochs (a time horizon "
                "could drop entries still needed for exact recovery)")
        if self.migration is not None and self.engine != ENGINE_MUPPET2:
            raise ConfigurationError(
                "live slate migration requires the muppet2 engine (one "
                "central slate manager per machine to stream from), "
                f"got engine={self.engine!r}")
        if self.autoscale is not None and self.engine != ENGINE_MUPPET2:
            raise ConfigurationError(
                "elastic autoscaling requires the muppet2 engine, "
                f"got engine={self.engine!r}")
