"""Virtual clock and the deterministic event scheduler."""

import pytest

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock
from repro.sim.des import Simulator


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0.0

    def test_callable_protocol(self):
        clock = VirtualClock(5.0)
        assert clock() == 5.0

    def test_advance(self):
        clock = VirtualClock()
        clock.advance_to(3.0)
        assert clock.now() == 3.0

    def test_no_time_travel(self):
        clock = VirtualClock(10.0)
        with pytest.raises(SimulationError):
            clock.advance_to(9.0)


class TestSimulator:
    def test_runs_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda s: order.append("c"))
        sim.schedule(1.0, lambda s: order.append("a"))
        sim.schedule(2.0, lambda s: order.append("b"))
        sim.run_until(float("inf"))
        assert order == ["a", "b", "c"]

    def test_same_time_priority_then_fifo(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda s: order.append("second"), priority=1)
        sim.schedule(1.0, lambda s: order.append("first"), priority=-1)
        sim.schedule(1.0, lambda s: order.append("third"), priority=1)
        sim.run_until(float("inf"))
        assert order == ["first", "second", "third"]

    def test_clock_follows_events(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda s: seen.append(s.now()))
        sim.run_until(float("inf"))
        assert seen == [2.5]

    def test_callbacks_can_schedule_more(self):
        sim = Simulator()
        hits = []

        def recur(s):
            hits.append(s.now())
            if len(hits) < 5:
                s.schedule_in(1.0, recur)

        sim.schedule(0.0, recur)
        sim.run_until(float("inf"))
        assert hits == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        ran = []
        sim.schedule(1.0, lambda s: ran.append(1))
        sim.schedule(5.0, lambda s: ran.append(5))
        sim.run_until(3.0)
        assert ran == [1]
        assert sim.now() == 3.0
        assert len(sim._heap) == 1

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.schedule(5.0, lambda s: None)
        sim.run_until(float("inf"))
        with pytest.raises(SimulationError):
            sim.schedule(1.0, lambda s: None)

    def test_max_steps_guard(self):
        sim = Simulator(max_steps=10)

        def forever(s):
            s.schedule_in(0.1, forever)

        sim.schedule(0.0, forever)
        with pytest.raises(SimulationError, match="max_steps"):
            sim.run_until(float("inf"))

    def test_determinism(self):
        def run_once():
            sim = Simulator()
            order = []
            for i in range(20):
                sim.schedule((i * 7) % 5 * 1.0,
                             lambda s, i=i: order.append(i))
            sim.run_until(float("inf"))
            return order

        assert run_once() == run_once()


class TestCancellableTimers:
    """schedule_cancellable backs the batching linger: a cancelled timer
    must cost nothing — no callback, no clock advance, no step."""

    def test_cancelled_action_never_runs(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule_cancellable(1.0, lambda s: fired.append(1))
        handle.cancel()
        sim.run_until(5.0)
        assert fired == []

    def test_cancelled_entry_is_free(self):
        sim = Simulator()
        sim.schedule_cancellable(1.0, lambda s: None).cancel()
        sim.schedule(2.0, lambda s: None)
        sim.run_until(5.0)
        assert sim.steps == 1      # only the live event counts

    def test_uncancelled_timer_fires_normally(self):
        sim = Simulator()
        fired = []
        sim.schedule_cancellable(1.0, lambda s: fired.append(s.now()))
        sim.run_until(5.0)
        assert fired == [1.0]

    def test_cancel_after_fire_is_harmless(self):
        sim = Simulator()
        handle = sim.schedule_cancellable(1.0, lambda s: None)
        sim.run_until(5.0)
        steps = sim.steps
        handle.cancel()            # late cancel: no error, no effect
        sim.run_until(6.0)
        assert sim.steps == steps

    def test_mixes_with_plain_events_deterministically(self):
        order = []
        sim = Simulator()
        sim.schedule(1.0, lambda s: order.append("plain"))
        sim.schedule_cancellable(1.0, lambda s: order.append("keep"))
        drop = sim.schedule_cancellable(1.0, lambda s: order.append("drop"))
        drop.cancel()
        sim.run_until(2.0)
        assert order == ["plain", "keep"]
