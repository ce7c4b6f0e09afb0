"""repro.obs — the observability layer: metrics, tracing, timelines.

Three cooperating pieces, all engine-agnostic:

* :class:`MetricsRegistry` (:mod:`repro.obs.registry`) — fixed-bucket
  latency histograms plus live views: engines register their existing
  stats objects (or dict-producing callables), so one snapshot reads the
  whole system and ``counter_report()`` is generated from the registry's
  family snapshot byte-identically to the pre-registry output.
* :class:`Tracer` sinks (:mod:`repro.obs.trace`) — opt-in structured
  span records (source → dispatch → enqueue → execute → slate flush →
  kv replica write, plus batch flushes and replay-dedup decisions),
  carrying each event's replay-stable ``(origin, oseq)`` provenance;
  :func:`reconstruct_chain` rebuilds a single event's full path.
* :class:`TimelineRecorder` (:mod:`repro.obs.timeline`) — per-machine
  queue-depth / dirty-slate and per-updater latency timeseries sampled
  on the existing flusher tick (zero extra simulator events).

:mod:`repro.obs.latency` holds what every engine records the paper's §5
quantities with: exact-sample latency recorders and percentiles,
throughput, the §5 targets, and the benchmark table formatters.
"""

from repro.obs.latency import (
    PAPER_CHECKINS_PER_SECOND,
    PAPER_LATENCY_BOUND_S,
    PAPER_TWEETS_PER_SECOND,
    LatencyRecorder,
    LatencySummary,
    ThroughputReport,
    format_table,
    percentile,
)
from repro.obs.registry import LATENCY_BUCKETS_S, Histogram, MetricsRegistry
from repro.obs.timeline import TimelineRecorder
from repro.obs.trace import (
    JsonlTracer,
    RingTracer,
    Span,
    Tracer,
    read_jsonl,
    reconstruct_chain,
)

__all__ = [
    "Histogram",
    "JsonlTracer",
    "LATENCY_BUCKETS_S",
    "LatencyRecorder",
    "LatencySummary",
    "MetricsRegistry",
    "PAPER_CHECKINS_PER_SECOND",
    "PAPER_LATENCY_BOUND_S",
    "PAPER_TWEETS_PER_SECOND",
    "RingTracer",
    "Span",
    "ThroughputReport",
    "TimelineRecorder",
    "Tracer",
    "format_table",
    "percentile",
    "read_jsonl",
    "reconstruct_chain",
]
