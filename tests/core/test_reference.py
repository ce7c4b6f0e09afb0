"""Reference executor: exact Section 3 semantics."""

import gc
import hashlib
import tracemalloc

import pytest

from repro.apps import build_hot_topics_app
from repro.apps.reputation import build_reputation_app
from repro.core import Application, Event, Mapper, ReferenceExecutor, Updater
from repro.errors import ConfigurationError, SimulationError, WorkflowError
from repro.workloads import TopicBurst, TweetGenerator
from tests.conftest import (CountingUpdater, ForwardingUpdater,
                            build_count_app, build_two_stage_app,
                            make_events, recording)


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
        result = ReferenceExecutor(build_count_app(),
                                   record=("S1", "S2")).run(make_events(3))
        assert len(result.events_on("S1")) == 3
        assert len(result.events_on("S2")) == 3

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
        logs = ([], [])
        r1, r2 = (ReferenceExecutor(build_two_stage_app(
            recording(ForwardingUpdater, log),
            recording(CountingUpdater, log))).run(list(events))
            for log in logs)
        assert len(logs[0]) == 100  # 50 forwards and 50 counts
        assert logs[0] == logs[1]
        assert {k: s.as_dict() for k, s in r1.slates.items()} == \
            {k: s.as_dict() for k, s in r2.slates.items()}


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
        result = ReferenceExecutor(app, record=("OUT",)).run(events)
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


def _digests(result):
    """SHA-256 of each recorded stream's events, in publication order."""
    return {sid: (len(events), hashlib.sha256(
        "\n".join(map(repr, events)).encode()).hexdigest())
        for sid, events in result.streams.items()}


def hot_topics_input():
    """The two days of tweets ``examples/hot_topics.py`` runs."""
    day = 86_400.0
    burst = TopicBurst("fashion", start_s=day + 60.0, end_s=day + 180.0,
                       multiplier=30.0)
    day1 = TweetGenerator(rate_per_s=40.0, seed=61).events(duration_s=240.0)
    day2 = TweetGenerator(rate_per_s=40.0, seed=62, bursts=[burst]).events(
        duration_s=240.0, start_ts=day)
    return list(day1) + list(day2)


class TestRecording:
    #: Per-stream (count, digest) of every published event, recorded
    #: when the executor still kept every stream.
    HOT_TOPICS = {
        "S1": (19200, "b9c81048e7c49db5f61a02503a84c7d5"
                      "a6326b539f683cd061b34c754bff5647"),
        "S2": (19200, "c0d2d115a38c379ccfcc9432ca57da06"
                      "4f22ee20c22ab03647eab7b605ed296a"),
        "S3": (80, "503116d845e49b598cfca11c1d94456c"
                   "62051a3e89555c5df486241392fe81ea"),
        "S4": (2, "4c3341d37b767cc92e612e64b3442bc8"
                  "e371babcd33b6d3791d9add2d59d3080"),
    }
    REPUTATION = {
        "S1": (2000, "4e5e202176f387f1ffa78e7758a2e847"
                     "b8c49292e4a41a28c6867d750949b1a1"),
        "S2": (2000, "20efaa5f34319b9a7b808518ddc5bb55"
                     "d3f076b1fd4876bb5e57826543bfffff"),
        "S3": (459, "933ccab00c3305a3a2ee5a18f6f21567"
                    "b73c1ec3ec776eb3dc1288af6e5812b2"),
    }

    def test_every_stream_recorded_matches_hot_topics(self):
        app = build_hot_topics_app(window_s=60.0, threshold=3.0)
        result = ReferenceExecutor(app, max_events=2_000_000,
                                   record=app.streams.sids()).run(
            hot_topics_input())
        assert self.HOT_TOPICS == _digests(result)

    def test_every_stream_recorded_matches_reputation(self):
        app = build_reputation_app()
        result = ReferenceExecutor(app, record=app.streams.sids()).run(
            TweetGenerator(sid="S1", seed=7).take(2000))
        assert self.REPUTATION == _digests(result)

    def test_published_counts_unrecorded_streams(self):
        result = ReferenceExecutor(build_count_app(), record=("S2",)).run(
            make_events(5))
        assert result.counters.published == 10
        assert len(result.events_on("S2")) == 5

    def test_undeclared_stream_in_record_raises(self):
        with pytest.raises(ConfigurationError, match="S9"):
            ReferenceExecutor(build_count_app(), record=("S2", "S9"))

    def test_events_on_an_unrecorded_stream_raises(self):
        result = ReferenceExecutor(build_count_app(), record=("S2",)).run(
            make_events(3))
        with pytest.raises(ConfigurationError, match="record="):
            result.events_on("S1")

    def test_result_retains_slates_not_the_stream(self):
        """A run over 20,000 events keeps its 200 slates, not a copy per
        update or the published events (which held 10.6 MiB)."""
        events = make_events(20_000, keys=200)
        app = build_count_app()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = ReferenceExecutor(app).run(events)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(result.slates_of("U1")) == 200
        assert kept < 0.5 * 2**20
