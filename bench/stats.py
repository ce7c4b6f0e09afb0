"""Order statistics used by every workload and by ``--check``.

Kept free of any ``repro`` import so the tests can pin the definitions
against a plain sorted list.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the samples at or below it.

    Nearest-rank (not interpolated) so that a reported p99 is a latency
    that was actually observed.
    """
    if not samples:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction!r} outside [0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def quartiles(samples: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them;
    a single sample is its own quartiles."""
    if len(samples) < 2:
        return [samples[0]] * 3
    return statistics.quantiles(samples, n=4)


def summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median with its quartiles and the sample count, for result files."""
    q1, q2, q3 = quartiles(samples)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(samples)}
