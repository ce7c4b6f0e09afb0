"""Reference executor: exact Section 3 semantics."""

import gc
import hashlib
import random
import tracemalloc

import pytest

from repro.apps import build_hot_topics_app
from repro.apps.key_splitting import build_split_app
from repro.apps.reputation import build_reputation_app
from repro.core import Application, Event, Mapper, ReferenceExecutor, Updater
from repro.errors import ConfigurationError, SimulationError, WorkflowError
from repro.workloads import CheckinGenerator, TopicBurst, TweetGenerator
from tests.conftest import (CountingUpdater, EchoMapper, ForwardingUpdater,
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

    @pytest.mark.parametrize("reverse", [False, True])
    def test_outputs_interleave_with_later_source_events(self, reverse):
        """An operator on a source stream and on an output derived from
        it sees each output before the next source event, whether the
        input came in order or not."""
        seen = []

        class Recorder(Updater):
            def update(self, ctx, event, slate):
                seen.append((event.sid, event.value))

        app = Application("interleave")
        app.add_stream("S1", external=True)
        app.add_stream("S2")
        app.add_mapper("M1", EchoMapper, subscribes=["S1"],
                       publishes=["S2"])
        app.add_updater("U1", Recorder, subscribes=["S1", "S2"])
        events = [Event("S1", float(i), "k", i) for i in range(3)]
        ReferenceExecutor(app).run(events[::-1] if reverse else events)
        assert seen == [("S1", 0), ("S2", 0), ("S1", 1), ("S2", 1),
                        ("S1", 2), ("S2", 2)]

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

    def test_internal_source_event_raises_before_any_update(self):
        """An in-order input is checked whole before the first delivery,
        not when the run reaches the bad event."""
        log = []
        app = build_count_app(recording(CountingUpdater, log))
        events = make_events(5) + [Event("S2", 1.0, "k")]
        with pytest.raises(WorkflowError, match="internal stream 'S2'"):
            ReferenceExecutor(app).run(events)
        assert log == []


class TestSequencing:
    def test_seq_does_not_depend_on_an_earlier_run_of_the_app(self):
        """Each executor stamps on its own sequencers: a second run on
        the same application publishes the same seq values as the first."""
        app = build_count_app()
        runs = [ReferenceExecutor(app, record=("S1", "S2")).run(
            make_events(3)) for _ in range(2)]
        for result in runs:
            assert [e.seq for e in result.events_on("S1")] == [0, 1, 2]
            assert [e.seq for e in result.events_on("S2")] == [0, 1, 2]


class TestRouting:
    def test_run_routes_without_scanning_the_operators(self, monkeypatch):
        """Subscribers are looked up in a table built with the executor,
        not found again among the application's operators per event."""
        executor = ReferenceExecutor(build_two_stage_app())
        calls = []
        operators = Application.operators
        monkeypatch.setattr(Application, "operators",
                            lambda app: calls.append(1) or operators(app))
        result = executor.run(make_events(10, keys=2))
        assert result.slates_of("U2")["k0"]["count"] == 5
        assert calls == []


def _digests(result):
    """SHA-256 of each recorded stream's events, in publication order."""
    return {sid: (len(events), hashlib.sha256(
        "\n".join(map(repr, events)).encode()).hexdigest())
        for sid, events in result.streams.items()}


def _slate_digest(result):
    """(count, SHA-256) of every final slate's fields and timestamps."""
    slates = sorted((sk.updater, sk.key, s.as_dict(), s.created_ts,
                     s.last_update_ts) for sk, s in result.slates.items())
    return len(slates), hashlib.sha256(
        "\n".join(map(repr, slates)).encode()).hexdigest()


def hot_topics_input():
    """The two days of tweets ``examples/hot_topics.py`` runs."""
    day = 86_400.0
    burst = TopicBurst("fashion", start_s=day + 60.0, end_s=day + 180.0,
                       multiplier=30.0)
    day1 = TweetGenerator(rate_per_s=40.0, seed=61).events(duration_s=240.0)
    day2 = TweetGenerator(rate_per_s=40.0, seed=62, bursts=[burst]).events(
        duration_s=240.0, start_ts=day)
    return list(day1) + list(day2)


@pytest.fixture(scope="module")
def traced_count_run():
    """The count app over 20,000 events on 200 keys, run once under
    tracemalloc: ``(result, peak, kept)``, in bytes above the start."""
    events = make_events(20_000, keys=200)
    app = build_count_app()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = ReferenceExecutor(app).run(events)
        peak = tracemalloc.get_traced_memory()[1] - before
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return result, peak, kept


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

    def test_result_retains_slates_not_the_stream(self, traced_count_run):
        """A run over 20,000 events keeps its 200 slates, not a copy per
        update or the published events (which held 10.6 MiB)."""
        result, _, kept = traced_count_run
        assert len(result.slates_of("U1")) == 200
        assert kept < 0.5 * 2**20


def _input_forms(events):
    """The same events as an in-order list, a shuffled list, a generator
    and a tuple."""
    shuffled = list(events)
    random.Random(3).shuffle(shuffled)
    return {"in_order": list(events), "shuffled": shuffled,
            "generator": (e for e in events), "tuple": tuple(events)}


def _split_case():
    events, _ = CheckinGenerator(seed=51, hot_retailer="Best Buy",
                                 hot_share=0.8,
                                 rate_per_s=200).take_with_truth(1200)
    return build_split_app(hot_keys=["Best Buy"], num_splits=4,
                           emit_every=5), events


def _reputation_case():
    return build_reputation_app(), TweetGenerator(sid="S1", seed=7).take(2000)


def _ties_case():
    """Four events per timestamp: seq alone orders each group."""
    return build_count_app(), [Event("S1", float(i // 4), f"k{i % 5}", i)
                               for i in range(400)]


#: Per-case (count, SHA-256) digests of the final slates and of every
#: stream for in-order input, recorded when the executor stamped every
#: source event into its heap before the first delivery.
IN_ORDER = {
    "split": {
        "slates": (13, "1a281c966e4ac00e381eb718d29f8e7a"
                       "b4877ac792621127db7274f100996b42"),
        "S1": (1200, "7d62c3935db44dde8ab685824ccc6504"
                     "dab2967c0ddbeb279c9606371cdacce1"),
        "S2": (477, "4469282d5c6f6cd417581c09d3f0564a"
                    "05ab0347244eb8c7fadce19e21b47669"),
        "S3": (110, "8ba1edc3ff2ab7cd9f198878608314912"
                    "b96a573898c06f34e6c91c535de9eda"),
    },
    "reputation": {
        "slates": (982, "3ca4ae7086d71928b126cc56d89ecd88"
                        "0b810816aceeb49795f819b4001297b7"),
        **TestRecording.REPUTATION,
    },
    "ties": {
        "slates": (5, "d03e3ad817597c70c243bfeeef22cd61"
                      "1a49d62fe11a441a0c23d61c253117da"),
        "S1": (400, "ea55f1d1e7869c8466aa1249717d53e8"
                    "cf632ebb642b1fa79d837f9f96bd8bf7"),
        "S2": (400, "4562db40b8062924f4c0f417ab240590"
                    "140684c6189f754033fdae79aacc32c2"),
    },
}
#: Where the shuffled input's digests differ, recorded the same way: S1
#: holds the source events in input order, and the ties case's S2
#: follows the order the input gave the events of one timestamp.
SHUFFLED = {
    "split": {"S1": (1200, "14cda075bcdb34aed9eb98b7dd7db665"
                           "7ea924227cea9e8a864c8b5f553429dc")},
    "reputation": {"S1": (2000, "60ebdf30177c83f7ea264626b0577ef7"
                                "d7076a63b198770061e9f1af1e3d1f51")},
    "ties": {"S1": (400, "9a4f68712a7cebe7208f97a8379f895e"
                         "f91369b80f4d71f6d58955a2d0fa70d6"),
             "S2": (400, "8be2b2d646dc3862a19153808ffb253a"
                         "528d096e9ff255a533fe64d5235be712")},
}
CASES = {"split": _split_case, "reputation": _reputation_case,
         "ties": _ties_case}


class TestInputForms:
    @pytest.mark.parametrize("form", ["in_order", "shuffled", "generator",
                                      "tuple"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_slates_and_streams_match_the_recorded_digests(self, case,
                                                            form):
        app, events = CASES[case]()
        result = ReferenceExecutor(app, max_events=500_000,
                                   record=app.streams.sids()).run(
            _input_forms(events)[form])
        want = dict(IN_ORDER[case])
        if form == "shuffled":
            want.update(SHUFFLED[case])
        got = _digests(result)
        got["slates"] = _slate_digest(result)
        assert got == want

    def test_run_peaks_at_its_slates_and_outputs_in_flight(
            self, traced_count_run):
        """In-order input is stamped as the run reaches it: 20,000
        events over 200 keys peak at the slates and the few outputs in
        flight, not at a stamped copy of the input (5.7 MiB)."""
        result, peak, _ = traced_count_run
        assert len(result.slates_of("U1")) == 200
        assert peak < 0.5 * 2**20
