"""Canonical traced scenarios for the analysis tools.

The invariant checker needs a trace worth checking: long enough to
cross a failure, a recovery, and replay, yet fully retained (a ring
that dropped its head makes FIFO/coverage checks report phantom
violations). This module re-creates the repo's E6d chaos scenario —
the one the ``e6d_crash_recover`` campaign commits — with tracing on and
a ring sized so nothing is dropped.

E6d: S1 → M1(echo) → S2 → U1(count), 2000 events/s for 3 s over 64
keys on a 4-machine cluster; m001 crashes at t=1.05 s and recovers at
t=2.0 s with its co-located kv node; slates flush every 0.2 s.

The default delivery mode here is **effectively-once**: that is the
mode whose guarantees the checker asserts in full. Under at-most-once
the documented orphaned-cache residual (see
``SimRuntime.schedule_add_machine``) can legitimately break strict
ring ownership — useful for demonstrating the checker catches it, not
for a green CI gate.

The module also defines the **E22 overload scenario** used by the
shed-accounting invariant and bench E22: a Zipf-skewed hotspot driven
at a configurable multiple of cluster capacity against a thinnable
hot counter, with a degraded overflow path. E22 runs are fault-free
and drained, which is exactly what shed accounting requires.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.errors import AnalysisError, ConfigurationError
from repro.obs.trace import Span

__all__ = [
    "E22_COST_FACTOR", "E22_HOT_KEEP", "E22_KEYS", "E22_OVERFLOW_SID",
    "E22_POLICIES", "build_e22_app", "build_e6d_app",
    "e22_base_capacity", "e22_classifier", "e22_overload_run",
    "e22_shedding_trace", "e22_source_events", "e22_thinning_policy",
    "E24_DIURNAL_PHASES", "build_e24_diurnal_app",
    "e24_elasticity_run", "e24_expected_events",
    "e24_migration_run", "e24_migration_trace",
    "e6d_chaos_run", "e6d_chaos_trace",
]


def build_e6d_app() -> Any:
    """S1 → M1(echo) → S2 → U1(count), as in the E6 chaos benches."""
    from repro.apps.counting import count_app

    return count_app("e6d-chaos")


def e6d_chaos_run(delivery: str = "effectively-once",
                  trace_capacity: int = 262_144,
                  rate_per_s: float = 2000.0,
                  duration_s: float = 3.0) -> Any:
    """Run the traced E6d chaos scenario; returns the finished runtime.

    The returned :class:`~repro.sim.SimRuntime` has run to completion;
    its ``tracer`` holds the full span trace.
    """
    from repro.cluster import ClusterSpec
    from repro.faults import FaultSchedule
    from repro.sim import SimConfig, SimRuntime
    from repro.sim.sources import constant_rate
    from repro.slates.manager import FlushPolicy

    config = SimConfig(
        flush_policy=FlushPolicy.every(0.2),
        queue_capacity=100_000,
        kill_kv_on_machine_failure=True,
        delivery_semantics=delivery,
        trace=True,
        trace_capacity=trace_capacity,
    )
    source = constant_rate("S1", rate_per_s=rate_per_s,
                           duration_s=duration_s,
                           key_fn=lambda i: f"k{i % 64}")
    chaos = FaultSchedule(seed=7).crash(1.05, "m001", recover_at=2.0)
    runtime = SimRuntime(build_e6d_app(), ClusterSpec.uniform(4, cores=4),
                         config, [source], failures=chaos)
    runtime.run(6.0)
    return runtime


def e6d_chaos_trace(delivery: str = "effectively-once",
                    trace_capacity: int = 262_144,
                    rate_per_s: float = 2000.0,
                    duration_s: float = 3.0) -> List[Span]:
    """The complete E6d span trace (raises if the ring dropped spans)."""
    runtime = e6d_chaos_run(delivery=delivery,
                            trace_capacity=trace_capacity,
                            rate_per_s=rate_per_s,
                            duration_s=duration_s)
    tracer = runtime.tracer
    assert tracer is not None
    dropped = getattr(tracer, "dropped", 0)
    if dropped:
        raise AnalysisError(
            f"trace ring dropped {dropped} spans; a truncated trace "
            "cannot be invariant-checked — raise trace_capacity")
    return tracer.spans()


# -- E22: graceful degradation under overload ---------------------------------

#: The degraded-service stream events divert to under pressure.
E22_OVERFLOW_SID = "S_OVF"
#: Zipf key population (hot head + long tail, Section 5 hotspots).
E22_KEYS = 64
#: Strong skew: ranks 0..3 carry ~95% of arrivals, the 60-key tail
#: ~5% — the regime where thinning the head pays for counting the
#: tail exactly (the tail must fit in capacity unthinned, or the
#: controller has no choice but the lossy tiers).
E22_ZIPF_EXPONENT = 2.5
#: Application cost of one hot-counter update, in multiples of the
#: base 250 µs update service time — 5 ms/update makes a small cluster
#: trivially saturable at modest rates.
E22_COST_FACTOR = 20.0
#: Overload policies bench E22 compares.
E22_POLICIES = ("drop", "divert", "throttle", "thin")

#: Graded keep rates for the four hottest Zipf ranks; every other key
#: is counted exactly. Under stratified thinning each thinned key's
#: relative error is deterministically below ``1 / (keep · n)``, so
#: the hotter the key (larger ``n``), the lower the keep rate it can
#: afford at the same error budget. With these rates the applied load
#: at full thin is ~10% of arrivals, and every rank's error bound
#: stays under 1% at the default 5× workload (the binding rank is
#: ``k3``: keep 0.4 × ~280 arrivals ≈ 112 expected kept > 100).
E22_HOT_KEEP = {"hot0": 0.03, "hot1": 0.08, "hot2": 0.2, "hot3": 0.4}

_E22_MACHINES = 2
_E22_CORES = 2


def e22_classifier(key: str) -> str:
    """Key class for :data:`E22_HOT_KEEP`: ``hot<rank>`` for the head."""
    from repro.shedding.thinning import DEFAULT_CLASS

    rank = int(key[1:])
    return f"hot{rank}" if rank < len(E22_HOT_KEEP) else DEFAULT_CLASS


def e22_thinning_policy() -> Any:
    """The graded head-only stratified policy bench E22 runs with."""
    from repro.shedding.thinning import ThinningPolicy

    return ThinningPolicy(keep_rates=dict(E22_HOT_KEEP),
                          classifier=e22_classifier)


def build_e22_app() -> Any:
    """S1 → U1(thinnable hot counter); S_OVF → U_OVF(degraded counter).

    ``U1`` is the deliberately expensive hotspot updater; it opts into
    probabilistic thinning, so under pressure the engine may sample its
    deliveries and apply the kept ones with inverse-probability weight
    (the slate stays an unbiased estimate of the true count). ``U_OVF``
    is the paper's "slightly degraded service": a cheap counter on the
    overflow stream that records what the primary path shed.
    """
    from repro.apps.counting import Count
    from repro.core.application import Application
    from repro.shedding.thinning import ThinnableCounter

    class _HotCount(ThinnableCounter):
        cost_factor = E22_COST_FACTOR

    class _DegradedCount(Count):
        cost_factor = 0.1

    app = Application("e22-overload")
    app.add_stream("S1", external=True)
    app.add_stream(E22_OVERFLOW_SID, overflow=True)
    app.add_updater("U1", _HotCount, subscribes=["S1"])
    app.add_updater("U_OVF", _DegradedCount, subscribes=[E22_OVERFLOW_SID])
    return app.validate()


def e22_base_capacity() -> float:
    """Sustainable U1 events/s of the E22 cluster (cores / service time).

    Overload multiples in :func:`e22_overload_run` are relative to
    this, so "5×" means five times what the cluster can actually
    apply per second at ``E22_COST_FACTOR``.
    """
    from repro.sim.costs import CostModel

    service_s = CostModel().update_time(E22_COST_FACTOR)
    return _E22_MACHINES * _E22_CORES / service_s


def e22_source_events(overload: float, duration_s: float = 3.0,
                      seed: int = 11) -> List[Any]:
    """The materialized E22 arrival list (shared with the reference).

    Benchmarks feed the *same list* to the overloaded engine and to the
    Section 3 reference executor, so the ground-truth counters the
    error measurement compares against describe exactly this workload.
    """
    from repro.sim.sources import constant_rate
    from repro.workloads.zipf import zipf_key_fn

    rate = e22_base_capacity() * overload
    source = constant_rate("S1", rate_per_s=rate, duration_s=duration_s,
                           key_fn=zipf_key_fn("k", E22_KEYS,
                                              E22_ZIPF_EXPONENT, seed))
    return list(source.events)


def e22_overload_run(policy: str = "thin", overload: float = 5.0,
                     duration_s: float = 3.0, seed: int = 11,
                     thinning: Any = None,
                     queue_capacity: int = 200,
                     trace: bool = False,
                     trace_capacity: int = 1_048_576,
                     events: Any = None) -> Tuple[Any, Any]:
    """Run E22 under one overload policy; returns ``(runtime, report)``.

    Args:
        policy: One of :data:`E22_POLICIES`. ``"drop"``, ``"divert"``
            and ``"throttle"`` are the paper's three static overflow
            responses; ``"thin"`` is the adaptive overload-control
            subsystem (backpressure tiers + IPW thinning + proactive
            diversion + source throttling) layered over a lossless
            throttle overflow policy, so nothing is ever dropped.
        overload: Arrival rate as a multiple of cluster capacity.
        thinning: ``ThinningPolicy`` override for the ``thin`` policy
            (default: :func:`e22_thinning_policy`).
        events: Pre-materialized arrival list (from
            :func:`e22_source_events`); generated when None.

    The run horizon scales with the overload multiple so that every
    policy — including the ones that defer work instead of shedding
    it — drains completely: shed accounting and the ground-truth error
    measurement both need final, settled state.
    """
    from repro.cluster import ClusterSpec
    from repro.obs import PAPER_LATENCY_BOUND_S
    from repro.muppet.queues import OverflowPolicy, SourceThrottle
    from repro.shedding.controller import SheddingConfig
    from repro.sim import SimConfig, SimRuntime
    from repro.sim.sources import from_trace

    if policy not in E22_POLICIES:
        raise ConfigurationError(
            f"unknown E22 policy {policy!r}; expected one of "
            f"{E22_POLICIES}")
    if events is None:
        events = e22_source_events(overload, duration_s, seed)
    kwargs: dict = {}
    if policy == "drop":
        kwargs["overflow"] = OverflowPolicy.drop()
    elif policy == "divert":
        kwargs["overflow"] = OverflowPolicy.divert(E22_OVERFLOW_SID)
    elif policy == "throttle":
        kwargs["overflow"] = OverflowPolicy.throttle()
        kwargs["throttle"] = SourceThrottle()
    else:  # thin — the full overload-control subsystem
        kwargs["overflow"] = OverflowPolicy.throttle()
        kwargs["shedding"] = SheddingConfig(
            thinning=thinning if thinning is not None
            else e22_thinning_policy(),
            seed=seed,
            overflow_sid=E22_OVERFLOW_SID,
            p99_budget_s=PAPER_LATENCY_BOUND_S,
            # Thinning alone absorbs the configured overloads; keep the
            # lossy (divert) and stalling (throttle) tiers as last
            # resorts above the startup transient's queue spike, so
            # they engage only when thinning genuinely cannot keep up
            # (the 10× row) and never during the ramp-up at 2×/5×.
            overflow_enter=0.85, overflow_exit=0.50,
            throttle_enter=0.95, throttle_exit=0.70,
            divert_fraction=0.90,
        )
    config = SimConfig(
        queue_capacity=queue_capacity,
        trace=trace,
        trace_capacity=trace_capacity,
        # Overloaded throttle runs hold thousands of deferred events;
        # the default 10 ms retry tick turns that into tens of millions
        # of retry re-deliveries over a long drain. A coarser tick
        # changes no outcome (the backlog drains at service rate either
        # way), just the simulator's bookkeeping volume.
        retry_delay_s=0.05,
        **kwargs,
    )
    runtime = SimRuntime(build_e22_app(),
                         ClusterSpec.uniform(_E22_MACHINES,
                                             cores=_E22_CORES),
                         config, [from_trace("S1", events)])
    # Deferred-work policies process the whole backlog at base
    # capacity, and the source-throttle hysteresis wastes a good half
    # of that on pause/resume dead time; give the slowest policy its
    # full drain window plus settle margin (idle virtual time is
    # nearly free in the DES, so the generous horizon costs the fast
    # policies nothing).
    horizon = duration_s * (overload * 3.5 + 1.0) + 5.0
    report = runtime.run(horizon)
    return runtime, report


def e22_shedding_trace(overload: float = 5.0, duration_s: float = 3.0,
                       seed: int = 11,
                       trace_capacity: int = 1_048_576) -> List[Span]:
    """The full E22 span trace under the adaptive ``thin`` policy.

    Fault-free and fully drained — the preconditions of the
    ``shed_accounting`` invariant. Raises if the ring dropped spans.
    """
    runtime, _ = e22_overload_run(policy="thin", overload=overload,
                                  duration_s=duration_s, seed=seed,
                                  trace=True,
                                  trace_capacity=trace_capacity)
    tracer = runtime.tracer
    assert tracer is not None
    dropped = getattr(tracer, "dropped", 0)
    if dropped:
        raise AnalysisError(
            f"trace ring dropped {dropped} spans; a truncated trace "
            "reads as vanished events to shed accounting — raise "
            "trace_capacity")
    return tracer.spans()


# -- E24: elastic scaling with live slate migration ---------------------------

def e24_migration_run(phase: Optional[str] = None, target: str = "donor",
                      kind: str = "retire",
                      delivery: str = "effectively-once",
                      trace_capacity: int = 262_144,
                      rate_per_s: float = 2000.0,
                      duration_s: float = 3.0) -> Any:
    """Run the traced E24 live-migration scenario; returns the runtime.

    The E6d workload (same app, rate, keys, cluster) with a live slate
    migration at t=1.0 s instead of a crash: ``kind="retire"`` drains
    m001 out of the ring through the incremental-handoff protocol,
    ``kind="join"`` admits a fresh elastic machine. When ``phase`` is
    given, a :meth:`~repro.faults.FaultSchedule.at_migration` trigger
    crashes the ``target`` participant as the handoff enters that
    phase — the chaos matrix the migration tests and the ``migration``
    invariant sweep.
    """
    from repro.cluster import ClusterSpec
    from repro.elastic import MigrationConfig
    from repro.faults import FaultSchedule
    from repro.sim import SimConfig, SimRuntime
    from repro.sim.sources import constant_rate
    from repro.slates.manager import FlushPolicy

    config = SimConfig(
        flush_policy=FlushPolicy.every(0.2),
        queue_capacity=100_000,
        kill_kv_on_machine_failure=True,
        delivery_semantics=delivery,
        migration=MigrationConfig(),
        trace=True,
        trace_capacity=trace_capacity,
    )
    source = constant_rate("S1", rate_per_s=rate_per_s,
                           duration_s=duration_s,
                           key_fn=lambda i: f"k{i % 64}")
    chaos = FaultSchedule(seed=7)
    if phase is not None:
        chaos.at_migration(phase, target=target)
    runtime = SimRuntime(build_e6d_app(), ClusterSpec.uniform(4, cores=4),
                         config, [source], failures=chaos)
    if kind == "retire":
        runtime.schedule_remove_machine(1.0, "m001")
    elif kind == "join":
        runtime.schedule_add_machine(1.0, "e901")
    else:
        raise ConfigurationError(
            f"e24 migration kind {kind!r} must be 'retire' or 'join'")
    runtime.run(8.0)
    return runtime


#: The E24 diurnal workload: piecewise-constant ``(rate/s, seconds)``
#: phases — a calm warm-up, a >11x surge, and a long cool-down. Against
#: a 5 ms/update counter this swings demand across the autoscaler's
#: whole 2..16 machine range (one core ≈ 200 updates/s).
E24_DIURNAL_PHASES: List[Tuple[float, float]] = [
    (250.0, 4.0), (2800.0, 24.0), (250.0, 32.0)]


def e24_expected_events(
        phases: Optional[List[Tuple[float, float]]] = None) -> int:
    """Total events the diurnal source materializes."""
    return sum(int(rate * seconds)
               for rate, seconds in (phases or E24_DIURNAL_PHASES))


def build_e24_diurnal_app() -> Any:
    """S1 → U1: a deliberately expensive counter (5 ms per update)."""
    from repro.apps.counting import Count, count_app

    class _CostlyCount(Count):
        cost_factor = 20.0  # 20 x 250 us base = 5 ms per update

    return count_app("e24-diurnal", hops=0, updater=_CostlyCount)


def e24_elasticity_run(
        full_rehydration: bool = False, horizon_s: float = 90.0,
        sample_period_s: float = 0.25,
) -> Tuple[Any, Any, List[Tuple[float, int]]]:
    """Run the E24 diurnal autoscaling scenario end to end.

    A 2-machine (1 core each) seed cluster faces the
    :data:`E24_DIURNAL_PHASES` swing under the autoscaler: queue
    pressure grows the cluster toward 16 machines through serialized
    live migrations, and the calm tail shrinks it back to 2. With
    ``full_rehydration=True`` every handoff runs the flush-barrier
    ablation instead of the incremental snapshot/delta stream.

    Returns ``(runtime, report, trajectory)`` where ``trajectory`` is
    the sampled ``[(t, live_machines), ...]`` curve.
    """
    from repro.cluster import ClusterSpec
    from repro.elastic import AutoscalerConfig, MigrationConfig
    from repro.sim import SimConfig, SimRuntime
    from repro.sim.sources import spiky_rate
    from repro.slates.manager import FlushPolicy

    config = SimConfig(
        flush_policy=FlushPolicy.every(0.2),
        queue_capacity=10_000,
        delivery_semantics="effectively-once",
        autoscale=AutoscalerConfig(
            min_machines=2, max_machines=16, check_period_s=0.25,
            scale_up_queue=0.5, scale_down_queue=0.1,
            cooldown_s=0.5, hold_s=1.0, grow_step=2, shrink_step=2,
            cores=1),
        migration=MigrationConfig(full_rehydration=full_rehydration),
    )
    source = spiky_rate("S1", E24_DIURNAL_PHASES,
                        key_fn=lambda i: f"k{i % 64}")
    runtime = SimRuntime(build_e24_diurnal_app(),
                         ClusterSpec.uniform(2, cores=1),
                         config, [source])
    trajectory: List[Tuple[float, int]] = []

    def sample(sim: Any) -> None:
        trajectory.append(
            (sim.now(), runtime._elastic_stats()["machines_live"]))
        sim.schedule_in(sample_period_s, sample)

    runtime.sim.schedule_in(0.0, sample)
    report = runtime.run(horizon_s)
    return runtime, report, trajectory


def e24_migration_trace(phase: Optional[str] = None, target: str = "donor",
                        kind: str = "retire",
                        trace_capacity: int = 262_144) -> List[Span]:
    """The complete E24 span trace (raises if the ring dropped spans)."""
    runtime = e24_migration_run(phase=phase, target=target, kind=kind,
                                trace_capacity=trace_capacity)
    tracer = runtime.tracer
    assert tracer is not None
    dropped = getattr(tracer, "dropped", 0)
    if dropped:
        raise AnalysisError(
            f"trace ring dropped {dropped} spans; a truncated trace "
            "cannot be invariant-checked — raise trace_capacity")
    return tracer.spans()
