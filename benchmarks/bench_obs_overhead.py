"""Observability overhead gate — tracing off must cost (almost) nothing.

With ``SimConfig.trace`` off, the engine holds ``None`` instead of a
tracer and every emission site is a single ``x is not None`` check — no
span dict is built, no arguments are marshalled. This script verifies
that contract two ways:

* **correctness**: the same seeded scenario with tracing+timeline on
  yields a byte-identical ``counter_report()`` and identical final
  slates — observability never perturbs the simulation;
* **cost**: the no-op guard's overhead is bounded. The measured bound is
  deterministic-by-construction: microbenchmark the per-check cost of
  ``x is not None``, multiply by the number of emission sites a traced
  run actually passes (the span count), and divide by the untraced
  wall-clock. That ratio must stay under ``MAX_OVERHEAD`` (2%). Raw
  wall-clock off-vs-on deltas are also reported for context, but the
  gate uses the guard model because same-process wall noise on shared CI
  runners routinely exceeds 2% on its own.

Usage::

    python benchmarks/bench_obs_overhead.py
    python benchmarks/bench_obs_overhead.py --results-dir /tmp/out
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps.counting import count_app, count_events
from repro.cluster import ClusterSpec
from repro.sim import SimConfig, SimRuntime
from repro.sim.sources import Source

BASELINE_PATH = REPO_ROOT / "BENCH_PERF.json"

#: The tracing-off overhead budget (fraction of untraced wall-clock).
MAX_OVERHEAD = 0.02

#: Timing repeats; min is reported (least-noise estimator).
REPEATS = 3


def _timed(fn) -> Tuple[Any, float]:
    walls = []
    result = None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        walls.append(time.perf_counter() - start)
    return result, min(walls)


def _run(traced: bool) -> Tuple[str, str, int]:
    """One run of the perf gate's E1 chain (S1 -> M1 -> S2 -> M2 -> S3
    -> U1), so the overhead is measured on the workload the committed
    BENCH_PERF.json baseline tracks; returns (counter_report, slates,
    span count)."""
    n, spacing, keys, machines = 30_000, 0.00002, 200, 4
    config = SimConfig(trace=traced, trace_capacity=4_000_000,
                       timeline=traced)
    runtime = SimRuntime(count_app("obs-overhead-chain", hops=2),
                         ClusterSpec.uniform(machines, cores=4), config,
                         [Source("S1", iter(count_events(n, keys, spacing)))])
    report = runtime.run(n * spacing + 5.0)
    slates = json.dumps(runtime.slates_of("U1"), sort_keys=True)
    spans = len(runtime.tracer.spans()) if traced else 0
    return report.counter_report(), slates, spans


def _guard_cost_ns() -> float:
    """Per-evaluation cost of the ``x is not None`` no-op guard."""
    tracer = None
    iterations = 2_000_000
    best = float("inf")
    for _ in range(REPEATS):
        hits = 0
        start = time.perf_counter()
        for _ in range(iterations):
            if tracer is not None:
                hits += 1
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        assert hits == 0
    return best / iterations * 1e9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results-dir", default=None, metavar="DIR",
                        help="also write the measurement to "
                             "DIR/obs_overhead.json (CI artifact)")
    args = parser.parse_args(argv)

    print("running untraced ...", flush=True)
    (report_off, slates_off, _), wall_off = _timed(lambda: _run(False))
    print("running traced (ring tracer + timeline) ...", flush=True)
    (report_on, slates_on, spans), wall_on = _timed(lambda: _run(True))
    guard_ns = _guard_cost_ns()

    # Guard-model overhead of the *off* path: one is-not-None check per
    # span a traced run would emit, relative to the untraced wall time.
    guard_overhead = (guard_ns * 1e-9 * spans) / wall_off
    measured_delta = (wall_on - wall_off) / wall_off

    failures = []
    if report_off != report_on:
        failures.append("counter_report changed when tracing was enabled")
    if slates_off != slates_on:
        failures.append("final slates changed when tracing was enabled")
    if guard_overhead >= MAX_OVERHEAD:
        failures.append(
            f"tracing-off guard overhead {guard_overhead:.4%} >= "
            f"{MAX_OVERHEAD:.0%} budget")

    baseline_wall = None
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        baseline_wall = (baseline.get("scenarios", {})
                         .get("e1_scaling", {}).get("wall_s"))

    result: Dict[str, Any] = {
        "wall_s_untraced": round(wall_off, 4),
        "wall_s_traced": round(wall_on, 4),
        "baseline_e1_wall_s": baseline_wall,
        "spans_emitted": spans,
        "guard_ns_per_check": round(guard_ns, 2),
        "tracing_off_overhead": round(guard_overhead, 6),
        "tracing_on_wall_delta": round(measured_delta, 4),
        "report_byte_identical": report_off == report_on,
        "slates_byte_identical": slates_off == slates_on,
        "budget": MAX_OVERHEAD,
        "failures": failures,
    }
    print(json.dumps(result, indent=2))

    if args.results_dir is not None:
        results_dir = Path(args.results_dir)
        results_dir.mkdir(parents=True, exist_ok=True)
        out = results_dir / "obs_overhead.json"
        out.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("obs overhead gate: tracing-off overhead "
          f"{guard_overhead:.4%} < {MAX_OVERHEAD:.0%} "
          f"({spans} spans, guard {guard_ns:.1f} ns/check)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
