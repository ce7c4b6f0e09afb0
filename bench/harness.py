"""What every workload shares: the run's arguments, speed-calibrated
timing, set-up repeats, environment facts and the result line.

Timing on this sandbox. The 2-core VM shares its host: the same
single-threaded Python code runs up to 1.6 times slower for seconds to
minutes at a time, in wall *and* CPU time. Ten runs of ``sim_chain`` on
ten seeds had raw throughput medians from 23.8 k to 38.0 k ev/s (spread
0.17; ``store_churn`` 0.21), which no bound the manifest may state could
referee. Every single-threaded, CPU-bound duration is therefore divided
by the machine's speed at that moment, measured by a fixed kernel run
immediately before and after the timed section (:class:`SpeedMeter`):
the same runs then read 35.5 k to 38.4 k (spread 0.05; ``store_churn``
0.06). The figures are in *calibrated* seconds — seconds on a machine
that runs the kernel in :data:`CALIB_NOMINAL_S` — and the raw figures
are printed and stored beside them. Durations that CPU speed does not
set are plain wall clock (:func:`wall_timed`): open-loop latencies,
which are facts about a schedule, and the two-core bulk repeats of
``local_tweets``, which wait on cross-core wake-ups.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from heapq import heappop, heappush
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

#: Duration of :func:`calibrate` on this sandbox when the host is quiet
#: (the fast tail of a few thousand samples). Only ratios to it matter;
#: changing it or the kernel rebases every calibrated metric.
CALIB_NOMINAL_S = 0.0160
_CALIB_DOC = {
    "user": "user123", "checkins": 17, "history": list(range(24)),
    "interests": [f"w{i}-{i * 37 % 997}" for i in range(16)],
    "bio": " ".join(f"word{i * 7 % 89}" for i in range(48)),
}
_CALIB_KEYS = [f"k{i}" for i in range(200)]

#: Set-ups per run; ``setup_s`` is their median (the manifest's contract
#: asks for several per run, so that one slow set-up does not decide it).
SETUP_REPEATS = 3

#: Full span records are kept for this many source events per traced run.
TRACE_KEEP_EVENTS = 2_000


class InvalidRun(Exception):
    """The program never finished the work it was given (``drain()``
    timed out); no numbers may be reported from the run."""


@dataclass
class RunArgs:
    """One invocation: one workload, one seed, one trace mode."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    #: Input-size factor; 1.0 except under ``--quick`` (0.1).
    scale: float = 1.0
    out_dir: Path = BENCH_DIR / "out"

    def scaled(self, count: int, floor: int = 1) -> int:
        return max(floor, int(count * self.scale))


def calibrate() -> float:
    """The faster of two runs of the calibration kernel, in wall seconds
    (a single run that a brief VM pause lands on would read double)."""
    return min(_kernel(), _kernel())


def _kernel() -> float:
    """One run of the calibration kernel.

    Three roughly equal parts, so that no one kind of interference is
    over- or under-weighted: integer arithmetic, heap and dict churn with
    small tuples, and JSON + zlib on a 1 KB document — the mix the
    workloads themselves are made of. (Any one part alone tracks the
    workloads' slow-downs about half as well.)
    """
    start = time.perf_counter()
    acc = 0
    for i in range(85_000):
        acc += i * i % 7
    heap: list = []
    counts: Dict[str, int] = {}
    for i in range(9_500):
        heappush(heap, (i * 7919 % 1000, i, None))
        key = _CALIB_KEYS[i % 200]
        counts[key] = counts.get(key, 0) + 1
        if len(heap) > 64:
            heappop(heap)
    for _ in range(135):
        blob = zlib.compress(json.dumps(
            _CALIB_DOC, separators=(",", ":"), sort_keys=True).encode())
        json.loads(zlib.decompress(blob))
    return time.perf_counter() - start


@dataclass
class Timed:
    """One timed section: calibrated and raw durations."""

    wall_s: float
    cpu_s: float
    raw_wall_s: float
    #: >1 when the machine ran slower than nominal during the section.
    speed: float
    result: Any = None


def wall_timed(fn: Callable[[], Any]) -> Timed:
    """Time ``fn`` in plain wall and CPU seconds (speed factor 1), for
    sections whose duration the machine's CPU speed does not set."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    result = fn()
    wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    return Timed(wall, cpu, wall, 1.0, result)


class SpeedMeter:
    """Times sections between two spin-kernel samples.

    The sample taken after one section doubles as the "before" of the
    next, so back-to-back repeats pay for one kernel run each.
    """

    def __init__(self) -> None:
        self._last = calibrate()

    def refresh(self) -> None:
        """Take a fresh "before" sample (after untimed work)."""
        self._last = calibrate()

    def timed(self, fn: Callable[[], Any]) -> Timed:
        before = self._last
        raw = wall_timed(fn)
        after = self._last = calibrate()
        speed = (before + after) / 2.0 / CALIB_NOMINAL_S
        return Timed(raw.wall_s / speed, raw.cpu_s / speed, raw.wall_s,
                     speed, raw.result)

    def timed_fresh(self, fn: Callable[[], Any]) -> Timed:
        """:meth:`timed` after a fresh "before" sample."""
        self.refresh()
        return self.timed(fn)


class Deadline:
    """The ``--seconds`` budget of a measuring phase."""

    def __init__(self, seconds: float) -> None:
        self.end = time.perf_counter() + seconds

    def passed(self) -> bool:
        return time.perf_counter() >= self.end


def repeat_setup(meter: SpeedMeter, setup: Callable[[], Any],
                 teardown: Optional[Callable[[Any], None]] = None,
                 ) -> Tuple[Any, List[float]]:
    """Run ``setup`` :data:`SETUP_REPEATS` times; returns the last state
    and every calibrated duration. Earlier states are torn down so only
    one is alive at a time."""
    durations: List[float] = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None and teardown is not None:
            teardown(state)
        state = None
        gc.collect()
        sample = meter.timed_fresh(setup)
        state = sample.result
        durations.append(sample.wall_s)
    return state, durations


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> Dict[str, Any]:
    """Facts a reader needs to compare two result files."""
    commit = None
    if (REPO_ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
                capture_output=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "switchinterval_s": sys.getswitchinterval(),
        "calib_nominal_s": CALIB_NOMINAL_S,
    }


@dataclass
class Result:
    """What a run reports: the contract's four keys plus detail that goes
    to the result file only."""

    correct: bool
    attempted: int
    failed: int
    #: name -> (value, unit)
    metrics: Dict[str, Tuple[float, str]]
    detail: Dict[str, Any] = field(default_factory=dict)
    #: What the run had to repeat for a valid measurement, or could not
    #: get one of (a stalled open-loop phase); printed, stored, and fatal
    #: under ``--check``.
    warnings: List[str] = field(default_factory=list)

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        })


def write_detail(args: RunArgs, result: Result) -> Path:
    """Write the run's result file under ``args.out_dir``."""
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"{args.workload}.trace{int(args.trace)}.json"
    payload = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "comparable": args.scale == 1.0,
        "environment": environment(),
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_share": result.failed / max(1, result.attempted),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
        "warnings": result.warnings,
        "detail": result.detail,
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
