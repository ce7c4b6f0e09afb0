"""Reference executor: exact Section 3 semantics."""

import pytest

from repro.core import Application, Event, Mapper, ReferenceExecutor, Updater
from repro.errors import SimulationError, WorkflowError
from tests.conftest import (CountingUpdater, build_count_app,
                            build_two_stage_app, make_events)


class TestBasicExecution:
    def test_counts_per_key(self):
        result = ReferenceExecutor(build_count_app()).run(
            make_events(20, keys=4))
        for key in ("k0", "k1", "k2", "k3"):
            assert result.slates_of("U1")[key]["count"] == 5

    def test_two_stage_pipeline(self):
        result = ReferenceExecutor(build_two_stage_app()).run(
            make_events(10, keys=2))
        assert result.slates_of("U2")["k0"]["count"] == 5
        assert result.slates_of("U1")["k1"]["count"] == 5

    def test_stream_logs_are_recorded(self):
        result = ReferenceExecutor(build_count_app()).run(make_events(3))
        assert len(result.events_on("S1")) == 3
        assert len(result.events_on("S2")) == 3
        assert result.events_on("S_unknown") == []

    def test_missing_slate_is_none(self):
        result = ReferenceExecutor(build_count_app()).run(make_events(1))
        assert result.slates_of("U1").get("never-seen") is None

    def test_counters(self):
        result = ReferenceExecutor(build_count_app()).run(make_events(5))
        assert result.counters.published == 10  # 5 source + 5 mapped
        assert result.counters.processed == 10  # 5 map + 5 update calls


class TestOrderingSemantics:
    def test_events_processed_in_global_timestamp_order(self):
        """Out-of-order input must still be fed in timestamp order."""
        seen = []

        class Recorder(Updater):
            def update(self, ctx, event, slate):
                seen.append(event.key)

        app = Application("order")
        app.add_stream("S1", external=True)
        app.add_updater("U1", Recorder, subscribes=["S1"])
        events = [Event("S1", 3.0, "c"), Event("S1", 1.0, "a"),
                  Event("S1", 2.0, "b")]
        ReferenceExecutor(app).run(events)
        assert seen == ["a", "b", "c"]

    def test_two_stream_merge_order(self):
        """The paper's 21:23/21:25 example: lower ts first across streams."""
        seen = []

        class Recorder(Mapper):
            def map(self, ctx, event):
                seen.append((event.sid, event.key))

        app = Application("merge")
        app.add_stream("A", external=True)
        app.add_stream("B", external=True)
        app.add_mapper("M", Recorder, subscribes=["A", "B"])
        ReferenceExecutor(app).run([Event("B", 21 * 60 + 25.0, "f"),
                                    Event("A", 21 * 60 + 23.0, "e")])
        assert seen == [("A", "e"), ("B", "f")]

    def test_determinism_across_runs(self):
        events = make_events(50, keys=7)
        r1 = ReferenceExecutor(build_two_stage_app()).run(list(events))
        r2 = ReferenceExecutor(build_two_stage_app()).run(list(events))
        assert r1.slate_update_log == r2.slate_update_log
        assert {k: s.as_dict() for k, s in r1.slates.items()} == \
            {k: s.as_dict() for k, s in r2.slates.items()}

    def test_slate_update_log_records_every_update(self):
        result = ReferenceExecutor(build_count_app()).run(make_events(4))
        assert len(result.slate_update_log) == 4
        counts = [snap["count"] for _, snap in result.slate_update_log]
        assert all(c >= 1 for c in counts)


class TestCycles:
    def test_cyclic_workflow_terminates_when_bounded(self):
        class DecayLoop(Updater):
            """Re-publishes n-1 for each event with value n > 0."""

            def init_slate(self, key):
                return {"iterations": 0}

            def update(self, ctx, event, slate):
                slate["iterations"] += 1
                if event.value and event.value > 0:
                    ctx.publish("LOOP", event.key, event.value - 1)

        app = Application("loop")
        app.add_stream("S1", external=True)
        app.add_stream("LOOP")
        app.add_updater("U1", DecayLoop, subscribes=["S1", "LOOP"],
                        publishes=["LOOP"])
        result = ReferenceExecutor(app).run([Event("S1", 0.0, "k", 5)])
        assert result.slates_of("U1")["k"]["iterations"] == 6  # 5,4,3,2,1,0

    def test_runaway_loop_hits_max_events(self):
        class Forever(Updater):
            def update(self, ctx, event, slate):
                ctx.publish("LOOP", event.key, None)

        app = Application("forever")
        app.add_stream("S1", external=True)
        app.add_stream("LOOP")
        app.add_updater("U1", Forever, subscribes=["S1", "LOOP"],
                        publishes=["LOOP"])
        with pytest.raises(SimulationError, match="max_events"):
            ReferenceExecutor(app, max_events=100).run(
                [Event("S1", 0.0, "k")])


class TestTimers:
    def test_timer_fires_in_order_and_updates_slate(self):
        class Windowed(Updater):
            def init_slate(self, key):
                return {"count": 0, "emitted": None}

            def update(self, ctx, event, slate):
                if slate["count"] == 0:
                    ctx.set_timer(event.ts + 60.0)
                slate["count"] += 1

            def on_timer(self, ctx, key, slate, payload=None):
                slate["emitted"] = slate["count"]
                ctx.publish("OUT", key, slate["count"])

        app = Application("windowed")
        app.add_stream("S1", external=True)
        app.add_stream("OUT")
        app.add_updater("U1", Windowed, subscribes=["S1"],
                        publishes=["OUT"])
        app.add_updater("U2", CountingUpdater, subscribes=["OUT"])
        events = [Event("S1", float(i), "k") for i in range(5)]       # in window
        events += [Event("S1", 100.0, "k")]                            # after
        result = ReferenceExecutor(app).run(events)
        # Timer set at ts=60 fires before the ts=100 event: 5 in window.
        assert result.slates_of("U1")["k"]["emitted"] == 5
        assert len(result.events_on("OUT")) == 1

    def test_timer_receives_payload(self):
        captured = []

        class PayloadTimer(Updater):
            def update(self, ctx, event, slate):
                ctx.set_timer(event.ts + 1.0, payload={"tag": event.value})

            def on_timer(self, ctx, key, slate, payload=None):
                captured.append(payload)

        app = Application("payload")
        app.add_stream("S1", external=True)
        app.add_updater("U1", PayloadTimer, subscribes=["S1"])
        ReferenceExecutor(app).run([Event("S1", 0.0, "k", "hello")])
        assert captured == [{"tag": "hello"}]


class TestTTLInReference:
    def test_slate_reset_after_ttl(self):
        """Section 4.2: expired slates reset to freshly initialized."""
        app = Application("ttl")
        app.add_stream("S1", external=True)
        app.add_updater("U1", CountingUpdater, subscribes=["S1"],
                        config={"slate_ttl": 10.0})
        events = [Event("S1", 0.0, "k"), Event("S1", 5.0, "k"),
                  Event("S1", 100.0, "k")]  # 95 s gap > TTL
        result = ReferenceExecutor(app).run(events)
        assert result.slates_of("U1")["k"]["count"] == 1  # reset at t=100


class TestInputValidation:
    def test_source_event_must_target_external_stream(self):
        with pytest.raises(WorkflowError, match="external"):
            ReferenceExecutor(build_count_app()).run(
                [Event("S2", 0.0, "k")])
