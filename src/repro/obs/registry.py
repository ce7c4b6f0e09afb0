"""MetricsRegistry: live views, groups, and fixed-bucket histograms.

The paper's operators were tuned in production by watching queue depths,
slate-flush backlogs, and per-function latencies (Sections 5-6: two-choice
queue balancing, the background flusher, and hot-key detection all hinge on
observable load). This module is the reproduction's single pane of glass
for those quantities: every engine attaches one :class:`MetricsRegistry`
and registers its live counter objects as *views*, so a snapshot reads the
whole system without any hot-path bookkeeping beyond what already exists.

Two kinds of entry:

* views and groups — an existing stats object, or a dict-producing
  callable, sampled only at snapshot time, so registering them costs the
  hot path nothing.
* :class:`Histogram` — fixed bucket boundaries with linear-interpolated
  p50/p95/p99 summaries; bucket counts (not raw samples) are retained, so
  memory stays O(buckets) regardless of event volume.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import fields
from typing import Any, Callable, ClassVar, Dict, List, Mapping, Sequence

from repro.errors import ConfigurationError

#: Every histogram's buckets (seconds, ascending upper bounds): 1 ms ..
#: 30 s in roughly 2x steps, bracketing the paper's 2-second end-to-end
#: bound from both sides. An implicit overflow bucket catches everything
#: above the last bound.
# fmt: off
LATENCY_BUCKETS_S = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0, 30.0,
)
# fmt: on


class CounterFields:
    """Base of the counter dataclasses (``*Stats``, ``*Counters``):
    :meth:`as_dict` is their field snapshot, keys in declaration order —
    the order ``counter_report()`` prints them in."""

    __slots__ = ()
    __dataclass_fields__: ClassVar[Dict[str, Any]]

    def as_dict(self) -> Dict[str, Any]:
        """Field snapshot; what a metrics-registry view or group reads."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class Histogram:
    """Fixed-bucket histogram with percentile summaries.

    Args:
        name: Registry name.

    The buckets are :data:`LATENCY_BUCKETS_S`. Percentiles are linearly
    interpolated within the winning bucket (the classic Prometheus
    ``histogram_quantile`` estimate), so they are approximations bounded
    by bucket width — adequate for the latency tables the benchmarks
    print, at O(buckets) memory.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "maximum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.bounds = LATENCY_BUCKETS_S
        self.counts: List[int] = [0] * (len(LATENCY_BUCKETS_S) + 1)  # +overflow
        self.count = 0
        self.total = 0.0
        self.maximum = 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value > self.maximum:
            self.maximum = value

    def observe_many(self, values: Sequence[float]) -> None:
        """Record many samples (report-time bulk feed): :meth:`observe`'s
        arithmetic, folded into one loop."""
        bounds, counts = self.bounds, self.counts
        total, maximum = self.total, self.maximum
        for value in values:
            counts[bisect.bisect_left(bounds, value)] += 1
            total += value
            if value > maximum:
                maximum = value
        self.count += len(values)
        self.total, self.maximum = total, maximum

    def percentile(self, fraction: float) -> float:
        """Estimated percentile; 0.0 when no samples were recorded."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError(f"fraction {fraction} outside [0, 1]")
        if self.count == 0:
            return 0.0
        rank = fraction * self.count
        seen = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                low = self.bounds[i - 1] if i > 0 else 0.0
                high = self.bounds[i] if i < len(self.bounds) else self.maximum
                if high <= low:
                    return high
                within = (rank - seen) / bucket_count
                return min(low + within * (high - low), self.maximum)
            seen += bucket_count
        return self.maximum

    @property
    def mean(self) -> float:
        """Sample mean; 0.0 when empty."""
        return self.total / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """Plain-dict summary: count/mean/p50/p95/p99/max."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "max": self.maximum,
        }


#: The smoothing both load controllers (overload tiers, autoscaler) apply
#: to the worst-queue-fraction signal.
QUEUE_EWMA_ALPHA = 0.4


class Ewma:
    """Exponentially weighted moving average of a scalar signal.

    The overload controller smooths its queue-depth signal with one of
    these per machine so a single deep-queue sample cannot flap a
    pressure tier. The first observation seeds the average directly
    (no warm-up bias toward zero); afterwards
    ``value = alpha * sample + (1 - alpha) * value``.
    """

    __slots__ = ("name", "alpha", "value", "count")

    def __init__(self, name: str, alpha: float) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(
                f"ewma alpha must be in (0, 1], got {alpha!r}")
        self.name = name
        self.alpha = alpha
        self.value = 0.0
        self.count = 0

    def observe(self, sample: float) -> float:
        """Fold one sample; returns the updated average."""
        if self.count == 0:
            self.value = sample
        else:
            self.value = self.alpha * sample + (1.0 - self.alpha) * self.value
        self.count += 1
        return self.value


def _numeric_fields(obj: Any) -> Dict[str, Any]:
    """The int/float attributes of a stats object, insertion-ordered.

    Works for ``__dict__``-backed and slotted stats objects alike; a
    slotted dataclass's ``__slots__`` preserves field declaration order,
    so snapshots keep their historical key order either way.
    """
    attrs = getattr(obj, "__dict__", None)
    if attrs is None:
        attrs = {name: getattr(obj, name) for name in obj.__slots__}
    return {
        name: value
        for name, value in attrs.items()
        if isinstance(value, (int, float)) and not name.startswith("_")
    }


class MetricsRegistry:
    """A namespace of histograms, object views and groups.

    Names are dotted paths (``"robustness.kv_retries"``); the first
    segment is the *family*, which :meth:`family_snapshot` groups by —
    the engines' ``counter_report`` is generated from exactly those
    families, which is what makes the registry refactor byte-invisible
    to the pre-existing determinism gates.
    """

    def __init__(self) -> None:
        self._histograms: Dict[str, Histogram] = {}
        #: (prefix, fn) pairs contributing whole dicts at snapshot time.
        self._groups: List[Any] = []

    # -- registration ------------------------------------------------------
    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def register_view(self, prefix: str, obj: Any) -> None:
        """Expose a live stats object's numeric fields.

        The object is read at snapshot time, so the owner keeps mutating
        its fields exactly as before — the registry is a *view*, not a
        copy, and attaching it costs the hot path nothing.
        """
        self._groups.append((prefix, lambda: _numeric_fields(obj)))

    def register_group(self, prefix: str, fn: Callable[[], Mapping[str, Any]]) -> None:
        """Expose a whole dict-producing callable under ``prefix``."""
        self._groups.append((prefix, fn))

    # -- reading -----------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """One flat, deterministically ordered name->value mapping.

        Histograms expand to ``<name>.count/.mean/.p50/.p95/.p99/.max``.
        Group and view entries are sampled now; conflicting names resolve
        last-registered-wins (views layered over histograms).
        """
        flat: Dict[str, Any] = {}
        for name, histogram in self._histograms.items():  # noqa: MUP003 -- flat is sorted before return
            for stat, value in histogram.summary().items():  # noqa: MUP003 -- flat is sorted before return
                flat[f"{name}.{stat}"] = value
        for prefix, fn in self._groups:
            for key, value in fn().items():  # noqa: MUP003 -- flat is sorted before return
                flat[f"{prefix}.{key}"] = value
        return dict(sorted(flat.items()))

    def family_snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Snapshot grouped by the first dotted segment of each name."""
        families: Dict[str, Dict[str, Any]] = {}
        for name, value in self.snapshot().items():  # noqa: MUP003 -- snapshot() is already name-sorted
            family, _, rest = name.partition(".")
            families.setdefault(family, {})[rest or family] = value
        return families

    def to_json(self) -> str:
        """The snapshot as a JSON document (CLI ``--metrics-out``)."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True, default=float)
