"""Metrics: percentiles, recorders, throughput, table formatting."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.faults import RobustnessCounters
from repro.obs import (PAPER_LATENCY_BOUND_S, PAPER_TWEETS_PER_SECOND,
                       LatencyRecorder, ThroughputReport, format_table,
                       percentile)


class TestPercentile:
    def test_median_of_odd_list(self):
        assert percentile([3, 1, 2], 0.5) == 2

    def test_interpolates(self):
        assert percentile([0, 10], 0.25) == pytest.approx(2.5)

    def test_extremes(self):
        samples = [5, 1, 9, 3]
        assert percentile(samples, 0.0) == 1
        assert percentile(samples, 1.0) == 9

    def test_single_sample(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50),
           st.floats(min_value=0.0, max_value=1.0))
    def test_result_within_sample_range(self, samples, fraction):
        result = percentile(samples, fraction)
        assert min(samples) <= result <= max(samples)

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=2, max_size=50))
    def test_monotone_in_fraction(self, samples):
        p50 = percentile(samples, 0.5)
        p95 = percentile(samples, 0.95)
        assert p50 <= p95


class TestLatencyRecorder:
    def test_summary_fields(self):
        recorder = LatencyRecorder()
        recorder.extend([0.001, 0.002, 0.100])
        summary = recorder.summary()
        assert summary.count == 3
        assert summary.mean == pytest.approx(0.103 / 3)
        assert summary.maximum == 0.100
        assert summary.p50 == 0.002

    def test_empty_summary_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().summary()

    def test_as_dict(self):
        recorder = LatencyRecorder()
        recorder.record(1.0)
        snap = recorder.summary().as_dict()
        assert snap["count"] == 1 and snap["max"] == 1.0

    def test_len(self):
        recorder = LatencyRecorder()
        recorder.record(0.5)
        recorder.record(0.5)
        assert len(recorder) == 2


class TestThroughput:
    def test_rates(self):
        report = ThroughputReport(events=8640, seconds=10.0)
        assert report.events_per_second == 864.0
        assert report.events_per_day == pytest.approx(864.0 * 86_400)

    def test_zero_window(self):
        assert ThroughputReport(100, 0.0).events_per_second == 0.0

    def test_paper_constants(self):
        """Sanity-pin the §5 production numbers used across benches."""
        assert PAPER_TWEETS_PER_SECOND == pytest.approx(1157.4, abs=0.1)
        assert PAPER_LATENCY_BOUND_S == 2.0


class TestRobustnessCounters:
    def test_as_dict_round_trips_every_field(self):
        counters = RobustnessCounters(recoveries=1, kv_retries=3,
                                      gray_slow_s=0.5)
        snap = counters.as_dict()
        assert snap["recoveries"] == 1
        assert snap["kv_retries"] == 3
        assert snap["gray_slow_s"] == 0.5
        from dataclasses import fields
        assert set(snap) == {f.name for f in fields(counters)}


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["name", "n"], [["a", 1], ["long-name", 22]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")
        assert all(len(line) == len(lines[0]) for line in lines[1:3])

    def test_empty_rows(self):
        table = format_table(["x"], [])
        assert "x" in table
