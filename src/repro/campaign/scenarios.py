"""Scenario cells for the shipped campaigns.

These cells report *simulated* metrics only (virtual-clock latency,
event counts, replay accounting) — no wall clock — so their campaign
artifacts are byte-identical across machines, reruns, and worker
counts. That is what lets CI re-run a reduced grid and diff it against
the committed artifact cell for cell.

``capacity_cell`` is the ROADMAP's capacity-planning curve (the paper's
§5 grid: machines × offered rate, judged against the 2 s latency
bound); ``delivery_cell`` is the E6e delivery-semantics matrix
(at-most/at-least/effectively-once × crash schedule);
``elasticity_cell`` is the E24 diurnal autoscaling swing (incremental
vs full-rehydration handoff), run by :func:`e24_elasticity_run`;
:func:`e24_migration_run` is the traced single live migration that
``analyze invariants --e24`` and the golden rows replay.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.apps.counting import Count, count_app
from repro.cluster import ClusterSpec
from repro.core.application import Application
from repro.elastic import AutoscalerConfig, MigrationConfig
from repro.errors import ConfigurationError
from repro.faults import FaultSchedule
from repro.obs import PAPER_LATENCY_BOUND_S
from repro.sim import SimConfig, SimRuntime, constant_rate
from repro.sim.des import Simulator
from repro.sim.report import SimReport
from repro.sim.sources import spiky_rate
from repro.slates.manager import FlushPolicy

#: The E24 diurnal workload: piecewise-constant ``(rate/s, seconds)``
#: phases — a calm warm-up, a >11x surge, and a long cool-down. Against a
#: 5 ms/update counter this swings demand across the autoscaler's whole
#: 2..16 machine range (one core ≈ 200 updates/s).
E24_DIURNAL_PHASES: List[Tuple[float, float]] = [
    (250.0, 4.0), (2800.0, 24.0), (250.0, 32.0)
]


class _CostlyCount(Count):
    """A counting updater with meaningful per-event CPU (NLP-ish work),
    so machine counts saturate at realistic rates: 20x the base update
    cost = 5 ms of simulated service time per event, ~800 ev/s of
    updater capacity per 4-core machine."""

    cost_factor = 20.0


def build_e24_diurnal_app() -> Application:
    """S1 → U1: a deliberately expensive counter (5 ms per update)."""
    return count_app("e24-diurnal", hops=0, updater=_CostlyCount)


def e24_expected_events() -> int:
    """Total events the diurnal source materializes."""
    return sum(int(rate * seconds) for rate, seconds in E24_DIURNAL_PHASES)


def e24_migration_run(
    kind: str = "retire", rate_per_s: float = 2000.0, duration_s: float = 3.0
) -> Tuple[SimRuntime, SimReport]:
    """The traced E24 live migration; returns ``(runtime, report)``.

    The E6d workload (same app, rate, keys, cluster) with a live slate
    migration at t=1.0 s instead of a crash: ``kind="retire"`` drains
    m001 out of the ring through the incremental-handoff protocol,
    ``kind="join"`` admits a fresh elastic machine.
    """
    config = SimConfig(
        flush_policy=FlushPolicy.every(0.2),
        queue_capacity=100_000,
        kill_kv_on_machine_failure=True,
        delivery_semantics="effectively-once",
        migration=MigrationConfig(),
        trace=True,
        trace_capacity=262_144,
    )
    source = constant_rate("S1", rate_per_s, duration_s, key_fn=lambda i: f"k{i % 64}")
    runtime = SimRuntime(
        count_app("e24-migration"), ClusterSpec.uniform(4, cores=4), config, [source]
    )
    if kind == "retire":
        runtime.schedule_remove_machine(1.0, "m001")
    elif kind == "join":
        runtime.schedule_add_machine(1.0, "e901")
    else:
        raise ConfigurationError(
            f"e24 migration kind {kind!r} must be 'retire' or 'join'"
        )
    return runtime, runtime.run(8.0)


def e24_elasticity_run(
    full_rehydration: bool = False, horizon_s: float = 90.0
) -> Tuple[SimRuntime, SimReport, List[Tuple[float, int]]]:
    """Run the E24 diurnal autoscaling scenario end to end.

    A 2-machine (1 core each) seed cluster faces the
    :data:`E24_DIURNAL_PHASES` swing under the autoscaler: queue pressure
    grows the cluster toward 16 machines through serialized live
    migrations, and the calm tail shrinks it back to 2. With
    ``full_rehydration=True`` every handoff runs the flush-barrier
    ablation instead of the incremental snapshot/delta stream.

    Returns ``(runtime, report, trajectory)`` where ``trajectory`` is the
    ``[(t, live_machines), ...]`` curve sampled every 0.25 s.
    """
    config = SimConfig(
        flush_policy=FlushPolicy.every(0.2),
        queue_capacity=10_000,
        delivery_semantics="effectively-once",
        autoscale=AutoscalerConfig(max_machines=16),
        migration=MigrationConfig(full_rehydration=full_rehydration),
    )
    source = spiky_rate("S1", E24_DIURNAL_PHASES, key_fn=lambda i: f"k{i % 64}")
    runtime = SimRuntime(
        build_e24_diurnal_app(), ClusterSpec.uniform(2, cores=1), config, [source]
    )
    trajectory: List[Tuple[float, int]] = []

    def sample(sim: Simulator) -> None:
        trajectory.append((sim.now(), runtime._elastic.stats()["machines_live"]))
        sim.schedule_in(0.25, sample)

    runtime.sim.schedule_in(0.0, sample)
    report = runtime.run(horizon_s)
    return runtime, report, trajectory


def capacity_cell(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One point of the capacity-planning grid: ``machines`` machines
    absorbing ``rate`` ev/s for ``duration`` seconds.

    A cell *meets* the plan when simulated p99 stays inside the paper's
    2 s budget and nothing is lost to queue overflow — the summary
    derives "machines needed for rate X" as the smallest passing
    machine count per rate.
    """
    machines = int(params["machines"])
    rate = float(params["rate"])
    duration = float(params.get("duration", 2.0))
    keys = int(params.get("keys", 128))
    source = constant_rate(
        "S1", rate_per_s=rate, duration_s=duration, key_fn=lambda i: f"k{i % keys}"
    )
    runtime = SimRuntime(
        count_app("campaign-count", updater=_CostlyCount),
        ClusterSpec.uniform(machines, cores=4),
        SimConfig(),
        [source],
    )
    report = runtime.run(duration + 8.0)
    counted = sum(v["count"] for v in runtime.slates_of("U1").values())
    offered = int(rate * duration)
    lost = report.counters.lost_total()
    p99_s = report.latency.p99 if report.latency is not None else float("inf")
    meets = bool(p99_s < PAPER_LATENCY_BOUND_S and lost == 0 and counted == offered)
    return {
        "offered": offered,
        "counted": counted,
        "lost": lost,
        "throughput_ev_s": round(report.events_per_second(), 3),
        "p50_ms": round(report.latency.p50 * 1e3, 3) if report.latency else None,
        "p99_ms": round(p99_s * 1e3, 3) if report.latency else None,
        "queue_peak": report.queue_peak_depth,
        "meets_budget": meets,
    }


def _fault_schedule(kind: str) -> FaultSchedule:
    """The delivery matrix's crash schedules (seeded like E6e)."""
    if kind == "none":
        return FaultSchedule()
    if kind == "crash":
        return FaultSchedule(seed=42).crash(1.05, "m001", recover_at=2.0)
    if kind == "double_crash":
        schedule = FaultSchedule(seed=42)
        schedule = schedule.crash(1.05, "m001", recover_at=1.7)
        return schedule.crash(2.1, "m002", recover_at=2.6)
    raise ConfigurationError(f"unknown fault schedule {kind!r}")


def delivery_cell(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One cell of the delivery-semantics matrix: ``delivery`` mode
    under the ``faults`` crash schedule, E6e's workload and knobs
    (per-key FIFO single-choice dispatch, kv nodes die with their
    machine). ``offered`` is the ground truth every mode is judged
    against; effectively-once must land on it exactly for *every*
    schedule."""
    delivery = str(params["delivery"])
    faults = str(params["faults"])
    rate = float(params.get("rate", 2000.0))
    duration = float(params.get("duration", 3.0))
    kwargs: Dict[str, Any] = {}
    if delivery == "at-least-once":
        kwargs["replay_horizon_s"] = duration + 3.0
    if delivery == "effectively-once":
        kwargs["checkpoint_epoch_s"] = 0.5
    config = SimConfig(
        flush_policy=FlushPolicy.every(0.2),
        queue_capacity=100_000,
        two_choice=False,
        kill_kv_on_machine_failure=True,
        delivery_semantics=delivery,
        **kwargs,
    )
    source = constant_rate(
        "S1", rate_per_s=rate, duration_s=duration, key_fn=lambda i: f"k{i % 64}"
    )
    runtime = SimRuntime(
        count_app("campaign-count"),
        ClusterSpec.uniform(4, cores=4),
        config,
        [source],
        failures=_fault_schedule(faults),
    )
    report = runtime.run(duration + 3.0)
    counted = sum(v["count"] for v in runtime.slates_of("U1").values())
    offered = int(rate * duration)
    return {
        "offered": offered,
        "counted": counted,
        "delta": counted - offered,
        "exact": counted == offered,
        "lost_failure": report.counters.lost_failure,
        "replay_deduped": report.robustness.replay_deduped,
        "replay_reapplied": report.robustness.replay_reapplied,
        "checkpoint_epochs": report.robustness.checkpoint_epochs,
        "recoveries": report.robustness.recoveries,
    }


def elasticity_cell(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """One cell of the E24 elasticity matrix: the full diurnal swing
    under one ``handoff`` mode.

    ``incremental`` is the live snapshot/delta/cutover migration;
    ``full`` is the flush-barrier full-rehydration ablation. Both must
    ride the swing 2 -> 16 -> 2 with exact effectively-once counts and
    zero aborted migrations; the committed artifact pins the moved-byte
    totals the incremental-vs-full claim is judged on."""
    handoff = str(params["handoff"])
    if handoff not in ("incremental", "full"):
        raise ConfigurationError(f"unknown handoff mode {handoff!r}")
    horizon_s = float(params.get("horizon", 90.0))
    runtime, report, trajectory = e24_elasticity_run(
        full_rehydration=(handoff == "full"), horizon_s=horizon_s
    )
    counted = sum(
        v["count"] for v in runtime.slates_of("U1", read_through=True).values()
    )
    expected = e24_expected_events()
    migration = runtime._migration.counters
    autoscaler = runtime._autoscaler.counters
    return {
        "expected": expected,
        "counted": counted,
        "exact": counted == expected,
        "lost": report.counters.lost_total(),
        "peak_machines": max(machines for _, machines in trajectory),
        "final_machines": trajectory[-1][1],
        "scale_ups": autoscaler.scale_ups,
        "scale_downs": autoscaler.scale_downs,
        "migrations_completed": migration.completed,
        "migrations_aborted": migration.aborted,
        "moved_bytes": migration.incremental_bytes or migration.full_barrier_bytes,
    }
