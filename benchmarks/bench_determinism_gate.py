"""Determinism gate — byte-identity of a seeded chaos run, in CI.

The simulator's reproducibility contract: two runs of the same seeded
:class:`~repro.faults.FaultSchedule` over the same workload must produce
*byte-identical* ``SimReport.counter_report()`` output and identical
final slate state. This script runs the E6d chaos scenario (crash m001
mid-stream, recover, hinted handoff drains, slates re-hydrate) twice and
fails on any byte difference — the CI ``determinism`` job's teeth.

A third run executes the same scenario with the observability layer
fully on (span tracing + timeline sampling) and asserts the report is
*still* byte-identical: tracing is passive and must never perturb the
simulated outcome.

Usage::

    python benchmarks/bench_determinism_gate.py
    python benchmarks/bench_determinism_gate.py --results-dir /tmp/out
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.apps.counting import count_app
from repro.cluster import ClusterSpec
from repro.faults import FaultSchedule
from repro.sim import SimConfig, SimRuntime
from repro.sim.sources import constant_rate
from repro.slates.manager import FlushPolicy


def run_e6d(observed: bool = False) -> Tuple[str, str]:
    """One seeded E6d chaos run; returns (counter_report, slates_json).

    With ``observed`` the full observability stack is on — ring tracing
    and timeline sampling — which must not change either return value.
    """
    config = SimConfig(
        flush_policy=FlushPolicy.every(0.2),
        queue_capacity=100_000,
        kill_kv_on_machine_failure=True,
        trace=observed,
        timeline=observed,
    )
    source = constant_rate(
        "S1", rate_per_s=2000.0, duration_s=3.0, key_fn=lambda i: f"k{i % 64}"
    )
    chaos = FaultSchedule(seed=7).crash(1.05, "m001", recover_at=2.0)
    runtime = SimRuntime(
        count_app("determinism-gate"), ClusterSpec.uniform(4, cores=4), config, [source], failures=chaos
    )
    report = runtime.run(6.0)
    slates = json.dumps(runtime.slates_of("U1"), sort_keys=True)
    return report.counter_report(), slates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir",
        default=None,
        metavar="DIR",
        help="also write the gate verdict JSON to DIR (CI artifact)",
    )
    args = parser.parse_args(argv)

    print("run 1/3 (chaos, observability off) ...", flush=True)
    report_a, slates_a = run_e6d()
    print("run 2/3 (identical seed — must be byte-identical) ...", flush=True)
    report_b, slates_b = run_e6d()
    print("run 3/3 (tracing + timeline on — must change nothing) ...", flush=True)
    report_obs, slates_obs = run_e6d(observed=True)

    failures = []
    if report_a != report_b:
        failures.append("counter_report differs between identical seeded runs")
        for line_a, line_b in zip(report_a.splitlines(), report_b.splitlines()):
            if line_a != line_b:
                print(f"  run1: {line_a}\n  run2: {line_b}")
    if slates_a != slates_b:
        failures.append("final slates differ between identical seeded runs")
    if report_a != report_obs:
        failures.append("enabling tracing/timeline changed counter_report")
        for line_a, line_o in zip(report_a.splitlines(), report_obs.splitlines()):
            if line_a != line_o:
                print(f"  off: {line_a}\n  obs: {line_o}")
    if slates_a != slates_obs:
        failures.append("enabling tracing/timeline changed final slates")

    verdict: Dict[str, Any] = {
        "scenario": "e6d_chaos_crash_recover",
        "report_lines": len(report_a.splitlines()),
        "byte_identical_rerun": report_a == report_b,
        "byte_identical_with_observability": report_a == report_obs,
        "failures": failures,
    }
    if args.results_dir is not None:
        results_dir = Path(args.results_dir)
        results_dir.mkdir(parents=True, exist_ok=True)
        out = results_dir / "determinism_gate.json"
        out.write_text(json.dumps(verdict, indent=2) + "\n")
        print(f"wrote {out}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        f"determinism gate: {len(report_a.splitlines())} report lines "
        "byte-identical across reruns and with observability on"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
