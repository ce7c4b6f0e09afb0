"""Command line of the benchmark.

Two ways in, one code path underneath:

* ``--workload W --seed N --seconds S --trace 0|1`` measures one
  workload in this process and prints the result object as the last
  line of standard output. This is the form the benchmark contract
  drives, and the form the suite below spawns.
* Without ``--trace`` the command is the suite: each workload runs in a
  fresh child interpreter (so peak RSS and warm caches do not leak from
  one to the next), first with tracing off for the end-to-end metrics,
  then traced for the per-layer ones; every metric is printed by name
  with its unit and the numbers are written under ``--out``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from bench import catalog
from bench.harness import BENCH_DIR, REPO_ROOT

#: ``--quick``: sizes / 10 and this many measuring seconds per run.
QUICK_SCALE = 0.1
QUICK_SECONDS = 1.5
CHILD_TIMEOUT_S = 170


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m bench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append",
                        choices=catalog.WORKLOAD_NAMES, metavar="NAME",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input seed: same seed, same inputs")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default "
                             f"{catalog.RUN_SECONDS}, --quick "
                             f"{QUICK_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="measure one workload in this process: 0 "
                             "end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out",
                        help="directory for result and trace files")
    parser.add_argument("--no-trace", action="store_true",
                        help="suite: skip the traced runs")
    parser.add_argument("--quick", action="store_true",
                        help="sizes / 10; results are not comparable")
    parser.add_argument("--check", action="store_true",
                        help="run the suite twice; fail unless end-to-end "
                             "metrics agree within their bounds and exact "
                             "counts are equal")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from bench/catalog")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    ns = parser.parse_args(argv)
    if ns.write_manifest:
        path = REPO_ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(catalog.manifest(), indent=2) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")
        return 0
    source = REPO_ROOT / "src"
    try:
        import repro
    except ImportError as exc:
        print(f"bench: the program under test is not importable from "
              f"{source}: {exc}", file=sys.stderr)
        return 2
    if source not in Path(repro.__file__).resolve().parents:
        # An installed copy would be measured instead of this checkout.
        print(f"bench: repro was imported from {repro.__file__}, not from "
              f"{source}", file=sys.stderr)
        return 2
    workloads = ns.workload or list(catalog.WORKLOAD_NAMES)
    seconds = ns.seconds if ns.seconds is not None else (
        QUICK_SECONDS if ns.quick else float(catalog.RUN_SECONDS))
    if ns.trace is not None:
        if len(workloads) != 1:
            parser.error("--trace measures exactly one --workload")
        return _run_one(workloads[0], ns.seed, seconds, bool(ns.trace),
                        ns.quick, ns.out)
    if ns.check:
        return _check(workloads, ns.seed, seconds, ns.quick, ns.out)
    suite = _run_suite(workloads, ns.seed, seconds, ns.quick,
                       not ns.no_trace, ns.out)
    return 0 if suite["ok"] else 1


# -- one workload, in this process -----------------------------------------------
def _run_one(workload: str, seed: int, seconds: float, trace: bool,
             quick: bool, out_dir: Path) -> int:
    from bench.harness import InvalidRun, RunArgs, write_detail
    from bench.workloads import RUNNERS

    args = RunArgs(workload=workload, seed=seed, seconds=seconds,
                   trace=trace, scale=QUICK_SCALE if quick else 1.0,
                   out_dir=out_dir)
    try:
        result = RUNNERS[workload](args)
    except InvalidRun as exc:
        # The engine never drained: there is nothing to measure, and no
        # numbers are written.
        print(f"bench: {workload}: invalid run: {exc}", file=sys.stderr)
        return 3
    path = write_detail(args, result)
    for name, (value, unit) in result.metrics.items():
        print(f"{workload:<13}{name:<40}{value:>16.6g} {unit}")
    # Beside the calibrated figures, what the wall clock read.
    for name, value in result.detail.get("wall_clock", {}).items():
        print(f"{workload:<13}{name:<40}{value:>16.6g}")
    for warning in result.warnings:
        print(f"{workload}: warning: {warning}")
    print(f"{workload}: attempted={result.attempted} failed={result.failed} "
          f"correct={result.correct} detail={path}")
    print(result.line())
    return 0 if result.correct else 1


# -- the suite: children, one per workload and trace mode ------------------------
def _child(workload: str, seed: int, seconds: float, trace: int,
           quick: bool, out_dir: Path) -> Dict[str, Any]:
    command = [sys.executable, "-m", "bench", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--out", str(out_dir.resolve())]
    if quick:
        command.append("--quick")
    started = time.perf_counter()
    try:
        done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the child by now.
        print(f"bench: {workload} --trace {trace} did not finish in "
              f"{CHILD_TIMEOUT_S} s", file=sys.stderr)
        return {"ok": False, "returncode": None,
                "elapsed_s": time.perf_counter() - started, "result": None}
    elapsed = time.perf_counter() - started
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or result is None:
        return {"ok": False, "returncode": done.returncode,
                "elapsed_s": elapsed, "result": result}
    detail = json.loads((out_dir / f"{workload}.trace{trace}.json")
                        .read_text(encoding="utf-8"))
    return {"ok": bool(result["correct"]), "returncode": 0,
            "elapsed_s": elapsed, "result": result,
            "warnings": detail["warnings"],
            "wall_clock": detail["detail"].get("wall_clock", {})}


def _run_suite(workloads: List[str], seed: int, seconds: float, quick: bool,
               traced: bool, out_dir: Path) -> Dict[str, Any]:
    from bench.harness import environment

    out_dir.mkdir(parents=True, exist_ok=True)
    suite: Dict[str, Any] = {"seed": seed, "seconds": seconds,
                             "comparable": not quick, "ok": True,
                             "environment": environment(),
                             "workloads": {}}
    for workload in workloads:
        row: Dict[str, Any] = {}
        for trace in (0, 1) if traced else (0,):
            run = _child(workload, seed, seconds, trace, quick, out_dir)
            row[f"trace{trace}"] = run
            suite["ok"] = suite["ok"] and run["ok"]
            _print_run(workload, trace, run)
        suite["workloads"][workload] = row
    path = out_dir / "results.json"
    path.write_text(json.dumps(suite, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"# results: {path}  ok={suite['ok']}"
          + ("" if suite["comparable"] else "  (quick: not comparable)"))
    return suite


def _print_run(workload: str, trace: int, run: Dict[str, Any]) -> None:
    result = run["result"]
    kind = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"# {workload}: {kind}, {run['elapsed_s']:.1f} s, "
          f"exit {run['returncode']}")
    if result is None:
        return
    share = result["failed"] / max(1, result["attempted"])
    print(f"{workload:<13}{'failed_share':<40}{share:>16.6g} "
          f"({result['failed']} of {result['attempted']})")
    for name, metric in result["metrics"].items():
        print(f"{workload:<13}{name:<40}{metric['value']:>16.6g} "
              f"{metric['unit']}")
    for name, value in run.get("wall_clock", {}).items():
        print(f"{workload:<13}{name:<40}{value:>16.6g}")
    for warning in run.get("warnings", ()):
        print(f"{workload}: warning: {warning}")


# -- --check: two suites must agree ----------------------------------------------
def _check(workloads: List[str], seed: int, seconds: float, quick: bool,
           out_dir: Path) -> int:
    first = _run_suite(workloads, seed, seconds, quick, True,
                       out_dir / "check1")
    second = _run_suite(workloads, seed, seconds, quick, True,
                        out_dir / "check2")
    problems = disagreements(first, second)
    if not (first["ok"] and second["ok"]):
        problems.append("a run failed its oracle or did not finish")
    for suite in (first, second):
        for workload, row in suite["workloads"].items():
            for run in row.values():
                problems.extend(f"{workload}: {warning}"
                                for warning in run.get("warnings", ()))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if not problems:
        print("# check passed: end-to-end metrics agree within their "
              "bounds, exact counts are equal")
    return 1 if problems else 0


def disagreements(first: Dict[str, Any], second: Dict[str, Any],
                  ) -> List[str]:
    """Where two suites of the same code differ by more than the
    benchmark allows."""
    bounds = {metric.name: metric.bound for metric in catalog.END_TO_END}
    exact = {metric.name for metric in catalog.PER_LAYER
             if catalog.is_exact(metric)}
    problems: List[str] = []
    for workload, row in first["workloads"].items():
        other = second["workloads"].get(workload, {})
        for mode, run in row.items():
            a = (run.get("result") or {}).get("metrics", {})
            b = ((other.get(mode) or {}).get("result") or {}).get(
                "metrics", {})
            for name, metric in a.items():
                if name not in b:
                    problems.append(f"{workload} {name}: missing in one set")
                    continue
                x, y = metric["value"], b[name]["value"]
                if name in bounds:
                    low = min(abs(x), abs(y))
                    if low and abs(x - y) / low > bounds[name]:
                        problems.append(
                            f"{workload} {name}: {x:.6g} vs {y:.6g} differ "
                            f"by more than {bounds[name]:.0%}")
                elif (name in exact
                      and workload in catalog.EXACT_WORKLOADS and x != y):
                    problems.append(
                        f"{workload} {name}: exact count {x!r} != {y!r}")
    return problems
