"""Perf gate — wall-clock and simulated-throughput regression guard.

Thin wrapper over the ``perf_baseline`` campaign
(:mod:`repro.campaign.perf`): the four canonical scenarios (E1-style
scaling, E2-style latency, E9-style flush, E23 compiled hot path) live
there as campaign cells, the committed baseline ``BENCH_PERF.json`` *is*
the campaign artifact, and this script only adds the tolerance-based
gates that a byte-diff cannot express (wall-clock ceilings, speedup
floors).

Usage::

    python benchmarks/bench_perf_gate.py            # run + print
    python benchmarks/bench_perf_gate.py --update   # refresh BENCH_PERF.json
                                                    # via the campaign runner
    python benchmarks/bench_perf_gate.py --check    # compare vs committed
                                                    # baseline (CI gate)
    python benchmarks/bench_perf_gate.py --profile  # cProfile top-25

``--check`` fails (exit 1) when a scenario's simulated throughput drops
more than 10% below the committed baseline, or its wall-clock exceeds it
by more than 25%, or E1's event batching costs CPU (under 0.8x), or
E23's run on the compiled hot path is slower than the 3.0x floor over
the pinned exact-stepper baseline. The simulated-throughput check is
effectively exact (the simulator is deterministic); the wall checks
assume comparable hardware — refresh the baseline with ``--update`` when
the reference machine changes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign import get_spec, load_artifact
from repro.campaign.perf import E23_BASELINE_EXACT_WALL_S, scenarios_from_artifact
from repro.campaign.runner import Runner, RunResult, write_outputs

BASELINE_PATH = REPO_ROOT / "BENCH_PERF.json"

#: --check tolerances.
SIM_THROUGHPUT_TOLERANCE = 0.10  # simulated ev/s may drop at most 10%
WALL_TOLERANCE = 0.25  # wall-clock may grow at most 25%
#: Event batching alone saves a third of the DES steps (gated exactly by
#: ``verify_perf``) at about even CPU: 0.9-1.2x over ten runs once the
#: routing memos stopped being part of the comparison. The floor sits
#: under that for shared-runner noise; it catches batching turning costly.
MIN_E1_CPU_SPEEDUP = 0.8
MIN_E23_SPEEDUP = 3.0  # compiled path vs the pinned exact-stepper wall

Scenarios = Dict[str, Dict[str, Any]]


def run_campaign() -> RunResult:
    """Run the ``perf_baseline`` campaign in-process (workers=1 — the
    scenarios measure wall clock, so parallel cells would contend)."""
    spec = get_spec("perf_baseline")
    result = Runner(spec, workers=1).run()
    for failure in result.verify_failures:
        print(f"  VERIFY FAIL: {failure}")
    return result


def check(current: Scenarios, baseline: Scenarios) -> int:
    """Compare a fresh run against the committed baseline; returns the
    number of violated gates (0 = pass)."""
    failures = 0
    for name, now in current.items():
        base = baseline.get(name)
        if base is None:
            print(f"  {name}: no baseline entry — run --update")
            failures += 1
            continue
        floor = base["sim_events_per_s"] * (1.0 - SIM_THROUGHPUT_TOLERANCE)
        if now["sim_events_per_s"] < floor:
            print(
                f"  FAIL {name}: simulated throughput "
                f"{now['sim_events_per_s']:.0f} ev/s < {floor:.0f} "
                f"(baseline {base['sim_events_per_s']:.0f} - 10%)"
            )
            failures += 1
        ceiling = base["wall_s"] * (1.0 + WALL_TOLERANCE)
        if now["wall_s"] > ceiling:
            print(
                f"  FAIL {name}: wall {now['wall_s']:.3f}s > "
                f"{ceiling:.3f}s (baseline {base['wall_s']:.3f}s + 25%)"
            )
            failures += 1
        print(
            f"  ok   {name}: {now['sim_events_per_s']:.0f} sim ev/s, "
            f"{now['wall_s']:.3f}s wall"
        )
    # Slate identity with batching on is `verify_perf`'s: a run that
    # breaks it never gets this far.
    e1 = current["e1_scaling"]
    if e1["speedup_cpu"] < MIN_E1_CPU_SPEEDUP:
        print(
            "  FAIL e1_scaling: batching CPU speedup "
            f"{e1['speedup_cpu']:.2f}x < {MIN_E1_CPU_SPEEDUP}x"
        )
        failures += 1
    e23 = current["e23_fastforward"]
    if e23["speedup_vs_baseline"] < MIN_E23_SPEEDUP:
        print(
            "  FAIL e23_fastforward: speedup "
            f"{e23['speedup_vs_baseline']:.2f}x < {MIN_E23_SPEEDUP}x "
            f"over the pinned {E23_BASELINE_EXACT_WALL_S}s exact wall"
        )
        failures += 1
    return failures


def profile_hot_path(results_dir: Path) -> None:
    """cProfile one E23 pass; write the top-25 cumulative table.

    The artifact (``DIR/profile_top25.txt``) shows where the wall goes
    on the compiled per-event path (heap ops, dict lookups, the handler
    closures themselves).
    """
    import cProfile
    import io
    import pstats

    from repro.campaign.perf import CHAIN_HORIZON_S, chain_runtime
    from repro.sim import SimConfig

    runtime = chain_runtime(SimConfig())
    profiler = cProfile.Profile()
    profiler.enable()
    runtime.run(CHAIN_HORIZON_S)
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats("cumulative").print_stats(25)
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / "profile_top25.txt"
    out.write_text(buffer.getvalue())
    print(buffer.getvalue())
    print(f"wrote {out}")


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--update",
        action="store_true",
        help="refresh BENCH_PERF.json (and its markdown rendering) "
        "through the campaign runner",
    )
    mode.add_argument(
        "--check",
        action="store_true",
        help="compare against committed BENCH_PERF.json; exit 1 on regression",
    )
    parser.add_argument(
        "--results-dir",
        default=None,
        metavar="DIR",
        help="also write the measured numbers to DIR/perf_gate.json (CI artifact)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="cProfile one E23 pass and write the top-25 "
        "cumulative table to the results dir (default benchmarks/results/)",
    )
    args = parser.parse_args(argv)

    if args.profile:
        default_dir = REPO_ROOT / "benchmarks" / "results"
        chosen = Path(args.results_dir) if args.results_dir else default_dir
        profile_hot_path(chosen)
        return 0

    result = run_campaign()

    if args.update:
        # The committed baseline is the campaign artifact itself —
        # identical to `python -m repro campaign run perf_baseline
        # --update` run from the repo root.
        spec = get_spec("perf_baseline")
        json_path = spec.committed_path(REPO_ROOT)
        write_outputs(spec, result, json_path, spec.markdown_path(REPO_ROOT))
        print(f"wrote {json_path}")
        return 1 if (result.failed or result.verify_failures) else 0

    if result.failed or result.verify_failures:
        print(
            f"perf campaign failed ({result.failed} cells, "
            f"{len(result.verify_failures)} verify failures)"
        )
        return 1
    current = scenarios_from_artifact(result.payload)
    print(json.dumps(current, indent=2, sort_keys=True))

    if args.results_dir is not None:
        results_dir = Path(args.results_dir)
        results_dir.mkdir(parents=True, exist_ok=True)
        out = results_dir / "perf_gate.json"
        out.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out}")

    if args.check:
        if not BASELINE_PATH.exists():
            print(f"no baseline at {BASELINE_PATH}; run --update first")
            return 1
        baseline = scenarios_from_artifact(load_artifact(BASELINE_PATH))
        failures = check(current, baseline)
        if failures:
            print(f"perf gate: {failures} gate(s) violated")
            return 1
        print("perf gate: all gates pass")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
