"""Tumbling-window helper: open/arm/close lifecycle."""

import pytest

from repro.core import Application, Event, ReferenceExecutor, Updater
from repro.core.windows import TumblingWindow
from repro.errors import ConfigurationError


WINDOW = TumblingWindow("w", length_s=60.0)


class WindowedCounter(Updater):
    """Counts per window; emits (key, count) on window close."""

    def init_slate(self, key):
        return WINDOW.init({"count": 0})

    def update(self, ctx, event, slate):
        WINDOW.observe(ctx, event.ts, slate)
        slate["count"] += 1

    def on_timer(self, ctx, key, slate, payload=None):
        count = slate["count"]
        slate["count"] = 0
        WINDOW.close(slate)
        ctx.publish("OUT", key, count)


def build_app():
    app = Application("windowed")
    app.add_stream("S1", external=True)
    app.add_stream("OUT")
    app.add_updater("U1", WindowedCounter, subscribes=["S1"],
                    publishes=["OUT"])
    from tests.conftest import CountingUpdater

    app.add_updater("SINK", CountingUpdater, subscribes=["OUT"])
    return app.validate()


class TestLifecycle:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TumblingWindow("", 60.0)
        with pytest.raises(ConfigurationError):
            TumblingWindow("w", 0.0)

    def test_first_event_opens_window(self):
        from repro.core.operators import Context
        from repro.core.slate import Slate, SlateKey

        window = TumblingWindow("w", 60.0)
        slate = Slate(SlateKey("U", "k"), window.init({}))
        ctx = Context("U", 10.0, (), "k")
        assert window.observe(ctx, 10.0, slate)        # opened
        assert not window.observe(ctx, 11.0, slate)    # already open
        assert slate["__w_open__"]
        assert slate["__w_start__"] == 10.0
        assert len(ctx.timers) == 1
        assert ctx.timers[0].at_ts == 70.0

    def test_close_resets(self):
        from repro.core.slate import Slate, SlateKey

        window = TumblingWindow("w", 60.0)
        slate = Slate(SlateKey("U", "k"), window.init({}))
        slate["__w_open__"] = True
        window.close(slate)
        assert not slate["__w_open__"]
        assert slate["__w_start__"] == -1.0


class TestEndToEnd:
    def test_consecutive_windows_emit_correct_counts(self):
        events = [Event("S1", float(t), "k") for t in (0, 10, 20)]
        events += [Event("S1", float(t), "k") for t in (100, 110)]
        events += [Event("S1", 300.0, "k")]
        result = ReferenceExecutor(build_app(), record=("OUT",)).run(events)
        emitted = [e.value for e in result.events_on("OUT")]
        # Window 1 opens at t=0, closes at 60 with 3 events; window 2
        # opens at 100, closes at 160 with 2; window 3 opens at 300.
        assert emitted == [3, 2, 1]

    def test_independent_keys_independent_windows(self):
        events = [Event("S1", 0.0, "a"), Event("S1", 50.0, "b"),
                  Event("S1", 55.0, "a")]
        result = ReferenceExecutor(build_app(), record=("OUT",)).run(events)
        emitted = {(e.key, e.value) for e in result.events_on("OUT")}
        assert emitted == {("a", 2), ("b", 1)}

    def test_two_windows_in_one_slate(self):
        fast = TumblingWindow("fast", 10.0)
        slow = TumblingWindow("slow", 100.0)
        fields = slow.init(fast.init({}))
        assert set(fields) == {"__fast_open__", "__fast_start__",
                               "__slow_open__", "__slow_start__"}
