"""Perf-gate scenarios as campaign cells.

These are the four canonical scenarios the perf gate has always run
(E1-style scaling, E2-style latency, E9-style flush pressure, E23
compiled hot path), relocated from ``benchmarks/bench_perf_gate.py`` so
the ``perf_baseline`` campaign regenerates ``BENCH_PERF.json`` through
the runner and the gate script becomes a thin wrapper over the same
cells.

Each scenario mixes deterministic simulated metrics (throughput, steps,
identity checks — byte-identical everywhere) with wall/CPU timings that
are machine-dependent by nature; the campaign spec lists the latter as
``volatile_metrics`` so ``campaign check`` ignores them while the gate's
tolerance checks still read them.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.apps.counting import count_app, count_events
from repro.campaign.e9_flush import drive
from repro.cluster import ClusterSpec
from repro.errors import ConfigurationError
from repro.sim import SimConfig, SimRuntime
from repro.sim.sources import Source
from repro.slates.manager import FlushPolicy, SlateManager

#: E23 baseline: the committed wall of the E1 workload on the original
#: exact stepper on the reference machine, pinned so the compiled path's
#: speedup is measured against a fixed yardstick — the stepper itself
#: no longer exists to be remeasured. The issue that introduced E23
#: targeted 5x; the honest measured speedup on this workload is 3-4x
#: (see EXPERIMENTS.md E23 for the CPython floor analysis).
E23_BASELINE_EXACT_WALL_S = 3.6863

#: Timing repeats per measured run; min is reported (least-noise).
REPEATS = 3


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float, float]:
    """Run ``fn`` REPEATS times; return (last result, min wall, min cpu)."""
    walls, cpus = [], []
    result = None
    for _ in range(REPEATS):
        w0, c0 = time.perf_counter(), time.process_time()
        result = fn()
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    return result, min(walls), min(cpus)


#: The chain workload E1, E23 and the gate's ``--profile`` share: 30k
#: events at 50k ev/s over 200 keys through two hops.
CHAIN_EVENTS, CHAIN_SPACING_S, CHAIN_KEYS, CHAIN_MACHINES = 30_000, 0.00002, 200, 4
CHAIN_HORIZON_S = CHAIN_EVENTS * CHAIN_SPACING_S + 5.0


def chain_runtime(config: SimConfig) -> SimRuntime:
    """The chain workload on 4 machines, ready to ``run(CHAIN_HORIZON_S)``."""
    events = count_events(CHAIN_EVENTS, CHAIN_KEYS, CHAIN_SPACING_S)
    return SimRuntime(
        count_app("perf-gate-chain", hops=2),
        ClusterSpec.uniform(CHAIN_MACHINES, cores=4),
        config,
        [Source("S1", iter(events))],
    )


# -- scenarios ---------------------------------------------------------------
def scenario_e1_scaling() -> Dict[str, Any]:
    """Chain pipeline at 50k ev/s on 4 machines, event batching off
    (every event ships alone) versus on."""

    def run(batch: bool) -> Tuple[Any, Any]:
        cfg = (
            SimConfig(batch_max_events=64, batch_linger_s=0.005)
            if batch
            else SimConfig()
        )
        runtime = chain_runtime(cfg)
        report = runtime.run(CHAIN_HORIZON_S)
        return report, runtime.slates_of("U1")

    (rep_off, slates_off), wall_off, cpu_off = _timed(lambda: run(False))
    (rep_on, slates_on), wall_on, cpu_on = _timed(lambda: run(True))
    dump_off = json.dumps(slates_off, sort_keys=True)
    dump_on = json.dumps(slates_on, sort_keys=True)
    identical = dump_off == dump_on
    return {
        "events": CHAIN_EVENTS,
        "machines": CHAIN_MACHINES,
        "sim_events_per_s": round(rep_on.events_per_second(), 3),
        "sim_events_per_s_unbatched": round(rep_off.events_per_second(), 3),
        "steps_unbatched": rep_off.steps,
        "steps_batched": rep_on.steps,
        "wall_s": round(wall_on, 4),
        "wall_s_unbatched": round(wall_off, 4),
        "cpu_s": round(cpu_on, 4),
        "cpu_s_unbatched": round(cpu_off, 4),
        "speedup_wall": round(wall_off / wall_on, 3),
        "speedup_cpu": round(cpu_off / cpu_on, 3),
        "batches_sent": rep_on.dataplane.batches_sent,
        "avg_batch_events": round(
            rep_on.dataplane.batched_events / max(1, rep_on.dataplane.batches_sent),
            2,
        ),
        "slates_identical": identical,
    }


def scenario_e2_latency() -> Dict[str, Any]:
    """Count pipeline at 2k ev/s on 6 machines with batching on; the
    linger must not push end-to-end latency anywhere near the paper's
    2 s bound."""
    n, spacing, keys, machines = 8_000, 0.0005, 500, 6
    horizon = n * spacing + 5.0

    def run() -> Any:
        cfg = SimConfig(batch_max_events=64, batch_linger_s=0.002)
        runtime = SimRuntime(
            count_app("perf-gate-count"),
            ClusterSpec.uniform(machines, cores=4),
            cfg,
            [Source("S1", iter(count_events(n, keys, spacing)))],
        )
        return runtime.run(horizon)

    report, wall, cpu = _timed(run)
    assert report.latency is not None
    return {
        "events": n,
        "machines": machines,
        "sim_events_per_s": round(report.events_per_second(), 3),
        "p99_latency_ms": round(report.latency.p99 * 1e3, 3),
        "wall_s": round(wall, 4),
        "cpu_s": round(cpu, 4),
    }


def scenario_e9_flush() -> Dict[str, Any]:
    """Slate-manager flush pressure: 20k hot-key updates through an
    interval policy, exercising the coalesced write_batch path."""
    updates, keys = 20_000, 500

    def run() -> SlateManager:
        nodes = ["n0", "n1", "n2", "n3"]
        manager = drive(FlushPolicy.every(0.05), updates, keys, nodes, 3)
        manager.flush_all_dirty()
        return manager

    manager, wall, cpu = _timed(run)
    sim_now = manager.clock()  # one tick past the run's virtual end
    return {
        "updates": updates,
        "sim_events_per_s": round(updates / max(sim_now, 1e-9), 3),
        "kv_writes": manager.stats.kv_writes,
        "batch_flushes": manager.stats.batch_flushes,
        "batched_writes": manager.stats.batched_writes,
        "wall_s": round(wall, 4),
        "cpu_s": round(cpu, 4),
    }


def scenario_e23_fastforward() -> Dict[str, Any]:
    """The E1 chain workload at default configuration on the compiled
    per-event path. The speedup figure is its wall against the pinned
    committed wall of the exact stepper this path replaced (the same
    number E1 reported as ``wall_s_unbatched`` back then); identity with
    that stepper is pinned by ``tests/sim/golden_reports.json``, and
    ``steps`` / ``inlined_steps`` here are deterministic."""

    def run() -> Tuple[Any, Any]:
        runtime = chain_runtime(SimConfig())
        return runtime.run(CHAIN_HORIZON_S), runtime.ff_summary()

    (report, ff), wall, cpu = _timed(run)
    return {
        "events": CHAIN_EVENTS,
        "machines": CHAIN_MACHINES,
        "sim_events_per_s": round(report.events_per_second(), 3),
        "steps": report.steps,
        "inlined_steps": ff["inlined_steps"],
        "baseline_exact_wall_s": E23_BASELINE_EXACT_WALL_S,
        "wall_s": round(wall, 4),
        "cpu_s": round(cpu, 4),
        "speedup_vs_baseline": round(E23_BASELINE_EXACT_WALL_S / wall, 3),
    }


SCENARIOS: Dict[str, Callable[[], Dict[str, Any]]] = {
    "e1_scaling": scenario_e1_scaling,
    "e2_latency": scenario_e2_latency,
    "e9_flush": scenario_e9_flush,
    "e23_fastforward": scenario_e23_fastforward,
}

#: Machine-dependent metrics: excluded from determinism comparison.
VOLATILE_METRICS: Tuple[str, ...] = (
    "wall_s",
    "wall_s_unbatched",
    "cpu_s",
    "cpu_s_unbatched",
    "speedup_wall",
    "speedup_cpu",
    "speedup_vs_baseline",
)


def perf_cell(params: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Campaign entry point: one perf scenario per cell.

    The scenarios are fully self-seeded (fixed event traces, virtual
    clocks), so the campaign seed is unused — deliberately, to keep the
    numbers comparable with every previously committed baseline.
    """
    name = str(params["scenario"])
    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ConfigurationError(
            f"unknown perf scenario {name!r}; have {sorted(SCENARIOS)}"
        )
    return scenario()


def scenarios_from_artifact(payload: Mapping[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Map a ``perf_baseline`` campaign artifact to the gate's historic
    ``{scenario_name: metrics}`` shape (the campaign artifact schema is
    the on-disk source of truth; this is the read adapter the gate's
    tolerance checks consume)."""
    scenarios: Dict[str, Dict[str, Any]] = {}
    for row in payload["cells"]:
        if row["status"] != "ok":
            continue
        scenarios[str(row["params"]["scenario"])] = dict(row["metrics"])
    return scenarios
