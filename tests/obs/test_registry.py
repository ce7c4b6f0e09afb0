"""MetricsRegistry: counters, gauges, histograms, views, snapshots."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import (Counter, Gauge, Histogram, LatencyRecorder,
                       MetricsRegistry, percentile)


class TestInstruments:
    def test_counter_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6

    def test_gauge_samples_lazily(self):
        box = {"v": 1}
        gauge = Gauge("g", lambda: box["v"])
        assert gauge.read() == 1
        box["v"] = 7
        assert gauge.read() == 7

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
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ConfigurationError):
            reg.histogram("x")
        with pytest.raises(ConfigurationError):
            reg.gauge("x", lambda: 0)

    def test_snapshot_flat_sorted_and_expanded(self):
        reg = MetricsRegistry()
        reg.counter("b.two").inc(2)
        reg.gauge("a.one", lambda: 1)
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
        reg.counter("counters.processed").inc(10)
        reg.register_group("robustness", lambda: {"kv_retries": 1})
        families = reg.family_snapshot()
        assert families["counters"] == {"processed": 10}
        assert families["robustness"] == {"kv_retries": 1}

    def test_to_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        assert json.loads(reg.to_json()) == {"a": 1}

    def test_latency_recorder_bridge(self):
        recorder = LatencyRecorder()
        recorder.extend([0.001, 0.010, 0.100])
        histogram = Histogram("lat")
        recorder.fill_histogram(histogram)
        assert histogram.count == 3
