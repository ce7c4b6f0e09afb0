"""Measurement utilities: latency recorders, throughput, percentiles.

Section 5 reports Muppet's headline numbers — >100 M tweets/day sustained
and end-to-end latency "under 2 seconds". These helpers give every engine
(local threads and simulator alike) a uniform way to record and summarize
those quantities so benchmarks can print paper-versus-measured tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Sequence


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``samples``.

    Args:
        samples: Any sequence of numbers; need not be sorted.
        fraction: In [0, 1]; e.g. 0.99 for p99.

    Raises:
        ValueError: If ``samples`` is empty or ``fraction`` out of range.
    """
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    # low + w*(high-low) is monotone in w and, with the clamp, immune to
    # the one-ULP overshoot of floating-point blending.
    value = ordered[low] + weight * (ordered[high] - ordered[low])
    return min(max(value, ordered[low]), ordered[high])


@dataclass(slots=True)
class LatencySummary:
    """Summary statistics for a set of latency samples (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float


class LatencyRecorder:
    """Accumulates per-event latencies and summarizes them.

    Latency here is the paper's end-to-end notion: time from the source
    event's timestamp to the completion of the last operator invocation it
    caused (or to a chosen sink operator).
    """

    def __init__(self) -> None:
        self._samples: List[float] = []

    def record(self, latency_s: float) -> None:
        """Add one latency sample (seconds)."""
        self._samples.append(latency_s)

    def extend(self, latencies: Iterable[float]) -> None:
        """Add many samples at once."""
        self._samples.extend(latencies)

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        """The raw samples (a direct reference; do not mutate)."""
        return self._samples

    def summary(self) -> LatencySummary:
        """Summarize; raises ValueError when no samples were recorded."""
        if not self._samples:
            raise ValueError("no latency samples recorded")
        return LatencySummary(
            count=len(self._samples),
            mean=sum(self._samples) / len(self._samples),
            p50=percentile(self._samples, 0.50),
            p95=percentile(self._samples, 0.95),
            p99=percentile(self._samples, 0.99),
            maximum=max(self._samples),
        )

    def fill_histogram(self, histogram) -> "LatencyRecorder":
        """Feed a registry histogram the samples it has not counted yet
        (report-time bridge to :class:`repro.obs.Histogram`; a histogram
        fed only from here counts exactly the samples it was fed);
        returns self."""
        seen = histogram.count
        histogram.observe_many(self._samples[seen:])
        return self


def worst_recent_p99(recorders: Mapping[str, LatencyRecorder],
                     window: int) -> float:
    """Worst per-updater p99 over each updater's trailing ``window``
    samples — the latency signal the overload controller watches."""
    worst = 0.0
    for recorder in recorders.values():  # noqa: MUP003 -- max() is order-independent
        samples = recorder.samples
        if samples:
            worst = max(worst, percentile(samples[-window:], 0.99))
    return worst


@dataclass(slots=True)
class ThroughputReport:
    """Events processed over a time window, with convenience rates."""

    events: int
    seconds: float

    @property
    def events_per_second(self) -> float:
        """Sustained rate; 0 when the window is empty."""
        if self.seconds <= 0:
            return 0.0
        return self.events / self.seconds


#: The paper's §5 production workload, in events/second, for benchmark
#: targets: "over 100 millions tweets and 1.5 million checkins per day".
PAPER_TWEETS_PER_SECOND = 100_000_000 / 86_400.0   # ≈ 1157 ev/s
PAPER_CHECKINS_PER_SECOND = 1_500_000 / 86_400.0   # ≈ 17.4 ev/s
PAPER_LATENCY_BOUND_S = 2.0


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render a simple aligned text table (benchmark output helper)."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)
