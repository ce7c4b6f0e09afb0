"""MetricsRegistry: histograms, views, groups, snapshots."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (Histogram, LatencyRecorder, MetricsRegistry,
                       percentile)


class TestInstruments:
    def test_histogram_percentiles_bracket_exact(self):
        histogram = Histogram("h")
        samples = [0.0015 * (i % 40 + 1) for i in range(1000)]
        histogram.observe_many(samples)
        for frac in (0.50, 0.95, 0.99):
            exact = percentile(samples, frac)
            estimate = histogram.percentile(frac)
            # Bucketed estimates are bounded by the winning bucket width.
            assert estimate == pytest.approx(exact, rel=0.5)
        assert histogram.count == 1000
        assert histogram.maximum == max(samples)
        assert histogram.mean == pytest.approx(sum(samples) / 1000)

    def test_histogram_overflow_bucket(self):
        histogram = Histogram("h", buckets=[1.0])
        histogram.observe(0.5)
        histogram.observe(99.0)
        assert histogram.counts == [1, 1]
        assert histogram.percentile(1.0) == 99.0

    def test_histogram_empty_summary(self):
        summary = Histogram("h").summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=[])
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=[2.0, 1.0])
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=[1.0, 1.0])

    def test_histogram_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            Histogram("h").percentile(1.5)


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.histogram("h") is reg.histogram("h")

    def test_snapshot_flat_sorted_and_expanded(self):
        reg = MetricsRegistry()
        reg.register_group("b", lambda: {"two": 2})
        reg.register_group("a", lambda: {"one": 1})
        reg.histogram("z.lat").observe(0.5)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["a.one"] == 1
        assert snap["b.two"] == 2
        assert snap["z.lat.count"] == 1

    def test_view_reads_live_object(self):
        class Stats:
            def __init__(self):
                self.hits = 0
                self._private = 99
                self.label = "not-numeric"

        stats = Stats()
        reg = MetricsRegistry()
        reg.register_view("cache", stats)
        assert reg.snapshot() == {"cache.hits": 0}
        stats.hits = 3
        assert reg.snapshot()["cache.hits"] == 3

    def test_group_callable(self):
        reg = MetricsRegistry()
        reg.register_group("kv", lambda: {"reads": 4, "writes": 2})
        assert reg.snapshot() == {"kv.reads": 4, "kv.writes": 2}

    def test_family_snapshot_groups_by_first_segment(self):
        reg = MetricsRegistry()
        reg.register_group("counters", lambda: {"processed": 10})
        reg.register_group("robustness", lambda: {"kv_retries": 1})
        families = reg.family_snapshot()
        assert families["counters"] == {"processed": 10}
        assert families["robustness"] == {"kv_retries": 1}

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.register_group("a", lambda: {"b": 1})
        assert json.loads(reg.to_json()) == {"a.b": 1}

    def test_latency_recorder_bridge(self):
        recorder = LatencyRecorder()
        recorder.extend([0.001, 0.010, 0.100])
        histogram = Histogram("lat")
        recorder.fill_histogram(histogram)
        assert histogram.count == 3
