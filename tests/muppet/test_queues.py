"""Bounded queues, overflow policies, and the source throttle."""

import pytest

from repro.errors import ConfigurationError
from repro.muppet.queues import BoundedQueue, OverflowPolicy, SourceThrottle


class TestBoundedQueue:
    def test_fifo_order(self):
        queue = BoundedQueue(max_size=10)
        for i in range(3):
            queue.offer(i)
        assert [queue.poll() for _ in range(3)] == [0, 1, 2]

    def test_declines_when_full(self):
        """Section 4.3: a full queue declines the event."""
        queue = BoundedQueue(max_size=2)
        assert queue.offer(1) and queue.offer(2)
        assert not queue.offer(3)
        assert queue.stats.rejected == 1
        assert len(queue) == 2

    def test_poll_empty_returns_none(self):
        assert BoundedQueue().poll() is None

    def test_peak_depth_tracked(self):
        queue = BoundedQueue(max_size=10)
        for i in range(7):
            queue.offer(i)
        for _ in range(7):
            queue.poll()
        assert queue.stats.peak_depth == 7

    def test_drain_returns_and_clears(self):
        """Machine failure: 'all events in its queue are also lost'."""
        queue = BoundedQueue()
        for i in range(5):
            queue.offer(i)
        lost = queue.drain()
        assert lost == [0, 1, 2, 3, 4]
        assert len(queue) == 0

    def test_invalid_max_size(self):
        with pytest.raises(ConfigurationError):
            BoundedQueue(max_size=0)


class TestOverflowPolicy:
    def test_drop_policy(self):
        assert OverflowPolicy.drop().kind == "drop"

    def test_divert_requires_stream(self):
        policy = OverflowPolicy.divert("S_overflow")
        assert policy.overflow_sid == "S_overflow"
        with pytest.raises(ConfigurationError):
            OverflowPolicy(kind="divert")

    def test_throttle_policy(self):
        assert OverflowPolicy.throttle().kind == "throttle"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            OverflowPolicy(kind="explode")


class TestSourceThrottle:
    def test_pauses_at_high_watermark(self):
        throttle = SourceThrottle(high_watermark=0.9, low_watermark=0.5)
        assert not throttle.observe(0.5, now=0.0)
        assert throttle.observe(0.95, now=1.0)
        assert throttle.paused

    def test_hysteresis_resume_below_low_watermark(self):
        throttle = SourceThrottle(high_watermark=0.9, low_watermark=0.5)
        throttle.observe(0.95, now=0.0)
        assert throttle.observe(0.7, now=1.0)   # still paused in between
        assert not throttle.observe(0.4, now=2.0)

    def test_paused_time_accounted(self):
        throttle = SourceThrottle()
        throttle.observe(0.95, now=10.0)
        throttle.observe(0.1, now=13.5)
        assert throttle.paused_time_s == pytest.approx(3.5)
        assert throttle.pause_count == 1

    def test_finish_closes_open_interval(self):
        throttle = SourceThrottle()
        throttle.observe(0.95, now=0.0)
        throttle.finish(now=2.0)
        assert throttle.paused_time_s == pytest.approx(2.0)

    def test_watermark_validation(self):
        with pytest.raises(ConfigurationError):
            SourceThrottle(high_watermark=0.5, low_watermark=0.9)


class TestThrottleFinish:
    def test_finish_is_idempotent(self):
        throttle = SourceThrottle()
        throttle.observe(0.95, now=0.0)
        throttle.finish(now=2.0)
        throttle.finish(now=2.0)      # a second close at once adds nothing
        assert throttle.paused_time_s == pytest.approx(2.0)
        throttle.finish(now=5.0)      # the pause went on: 2 s more...
        throttle.finish(now=5.0)
        assert throttle.paused_time_s == pytest.approx(5.0)  # ...once

    def test_finish_without_open_interval_is_a_noop(self):
        throttle = SourceThrottle()
        throttle.finish(now=3.0)
        assert throttle.paused_time_s == 0.0
