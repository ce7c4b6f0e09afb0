"""Arrival processes for the simulator."""

import pytest

from repro.core.event import Event
from repro.errors import ConfigurationError
from repro.sim.sources import (constant_rate, from_trace, poisson_rate,
                               spiky_rate)


class TestConstantRate:
    def test_count_and_spacing(self):
        source = constant_rate("S1", rate_per_s=10, duration_s=2.0,
                               key_fn=lambda i: f"k{i}")
        events = list(source.events)
        assert len(events) == 20
        assert events[1].ts - events[0].ts == pytest.approx(0.1)

    def test_keys_and_values(self):
        source = constant_rate("S1", 5, 1.0, key_fn=lambda i: f"k{i}")
        events = list(source.events)
        assert events[3].key == "k3" and events[3].value is None
        assert events[0].ts == 0.0

    def test_invalid_rate(self):
        with pytest.raises(ConfigurationError):
            constant_rate("S1", 0, 1.0, key_fn=str)


class TestPoissonRate:
    def test_seeded_determinism(self):
        a = list(poisson_rate("S1", 100, 1.0, key_fn=str, seed=42).events)
        b = list(poisson_rate("S1", 100, 1.0, key_fn=str, seed=42).events)
        assert a == b

    def test_rate_approximately_honored(self):
        events = list(poisson_rate("S1", 1000, 2.0, key_fn=str,
                                   seed=1).events)
        assert 1600 < len(events) < 2400  # ±20% of 2000

    def test_timestamps_within_duration_and_increasing(self):
        events = list(poisson_rate("S1", 100, 1.0, key_fn=str,
                                   seed=3).events)
        assert all(0 <= e.ts < 1.0 for e in events)
        assert all(a.ts <= b.ts for a, b in zip(events, events[1:]))


class TestSpikyRate:
    def test_phase_rates(self):
        source = spiky_rate("S1", [(10, 1.0), (100, 1.0), (10, 1.0)],
                            key_fn=str)
        events = list(source.events)
        assert len(events) == 120
        burst = [e for e in events if 1.0 <= e.ts < 2.0]
        assert len(burst) == 100

    def test_zero_rate_phase_is_a_gap(self):
        source = spiky_rate("S1", [(10, 1.0), (0, 5.0), (10, 1.0)],
                            key_fn=str)
        events = list(source.events)
        gap = [e for e in events if 1.0 <= e.ts < 6.0]
        assert gap == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            spiky_rate("S1", [], key_fn=str)
        with pytest.raises(ConfigurationError):
            spiky_rate("S1", [(10, -1.0)], key_fn=str)


class TestFromTrace:
    def test_wraps_event_list(self):
        events = [Event("S1", float(i), f"k{i}") for i in range(5)]
        assert list(from_trace("S1", events).events) == events

    def test_rejects_wrong_stream(self):
        events = [Event("S9", 0.0, "k")]
        with pytest.raises(ConfigurationError):
            list(from_trace("S1", events).events)

    def test_rejects_time_regression(self):
        events = [Event("S1", 2.0, "a"), Event("S1", 1.0, "b")]
        with pytest.raises(ConfigurationError):
            list(from_trace("S1", events).events)
