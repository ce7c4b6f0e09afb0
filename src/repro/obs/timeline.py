"""Per-operator/per-machine timeseries sampled during a simulated run.

The paper's operational story (Sections 5-6) is about watching load move:
queue depths during hotspots, dirty-slate backlogs between flushes,
per-function latency as machines come and go. :class:`TimelineRecorder`
captures exactly those series. Sampling piggybacks on the engine's
existing background-flusher tick, so enabling a timeline adds *zero*
simulator events — ``SimReport.counter_report()`` (which includes the
step count) stays byte-identical with the timeline on or off.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.registry import Histogram


class TimelineRecorder:
    """Accumulates periodic samples; rendered by ``SimReport.timeline()``.

    Series kept per sample time ``t`` (simulated seconds):

    * machines: worst/total worker-queue depth and dirty-slate count;
    * updaters: cumulative latency-sample count plus the running
      p50/p95/p99 estimate from a fixed-bucket :class:`Histogram`.
    """

    def __init__(self) -> None:
        self.machine_series: Dict[str, List[Dict[str, Any]]] = {}
        self.updater_series: Dict[str, List[Dict[str, Any]]] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._fed: Dict[str, int] = {}

    def sample_machine(
        self,
        now: float,
        machine: str,
        queue_depth: int,
        queue_peak: int,
        dirty_slates: int,
        alive: bool,
    ) -> None:
        """Record one machine's queue/slate state at time ``now``."""
        point = {
            "t": now,
            "queue_depth": queue_depth,
            "queue_peak": queue_peak,
            "dirty_slates": dirty_slates,
            "alive": alive,
        }
        self.machine_series.setdefault(machine, []).append(point)

    def sample_updater(
        self, now: float, updater: str, latency_samples: List[float]
    ) -> None:
        """Fold new latency samples into the updater's running histogram
        and record the summary at time ``now``. ``latency_samples`` is
        the updater's cumulative sample list; only the unseen tail is
        folded in, so callers can pass the recorder's live list."""
        histogram = self._histograms.get(updater)
        if histogram is None:
            histogram = self._histograms[updater] = Histogram(f"timeline.{updater}")
        seen = self._fed.get(updater, 0)
        for value in latency_samples[seen:]:
            histogram.observe(value)
        self._fed[updater] = len(latency_samples)
        point = {"t": now}
        point.update(histogram.summary())
        self.updater_series.setdefault(updater, []).append(point)

    def as_dict(self) -> Dict[str, Any]:
        """The full timeline: ``{"machines": {...}, "updaters": {...}}``."""
        return {
            "machines": {
                name: list(points)
                for name, points in sorted(self.machine_series.items())
            },
            "updaters": {
                name: list(points)
                for name, points in sorted(self.updater_series.items())
            },
        }
