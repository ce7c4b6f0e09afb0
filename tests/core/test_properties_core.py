"""Property-based tests (hypothesis) on the core model's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Application, Event, ReferenceExecutor
from repro.core.slate import Slate, SlateKey
from repro.core.stream import StreamRegistry, StreamSpec
from tests.conftest import (CountingUpdater, SummingUpdater,
                            build_count_app, recording)

keys = st.text(alphabet="abcdef", min_size=1, max_size=3)
timestamps = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                       allow_infinity=False)


def events_strategy(sid="S1"):
    return st.lists(
        st.builds(lambda ts, k, v: Event(sid, ts, k, v),
                  timestamps, keys, st.integers(-100, 100)),
        min_size=0, max_size=60)


class TestOrderingProperties:
    @given(events_strategy())
    def test_order_key_is_total(self, events):
        """No two stamped events of one registry compare equal."""
        registry = StreamRegistry()
        registry.declare(StreamSpec("S1", external=True))
        stamped = [registry.stamp(e) for e in events]
        order_keys = [e.order_key() for e in stamped]
        assert len(set(order_keys)) == len(order_keys)


class TestReferenceProperties:
    @settings(max_examples=30, deadline=None)
    @given(events_strategy())
    def test_counts_match_key_frequencies(self, events):
        """Whatever the input, U1's slate counts equal key frequencies."""
        result = ReferenceExecutor(build_count_app()).run(events)
        frequencies = {}
        for event in events:
            frequencies[event.key] = frequencies.get(event.key, 0) + 1
        got = {k: s["count"] for k, s in result.slates_of("U1").items()}
        assert got == frequencies

    @settings(max_examples=30, deadline=None)
    @given(events_strategy())
    def test_input_order_does_not_matter_for_distinct_ts(self, events):
        """Section 3's well-definedness: with distinct timestamps the
        executor's internal sort makes presentation order irrelevant.
        (Equal-timestamp source events tie-break by publication sequence,
        which *is* presentation order — so we de-duplicate timestamps.)"""
        distinct = []
        seen_ts = set()
        for event in events:
            if event.ts not in seen_ts:
                seen_ts.add(event.ts)
                distinct.append(event)
        forward, backward = [], []
        ReferenceExecutor(build_count_app(
            recording(CountingUpdater, forward))).run(list(distinct))
        ReferenceExecutor(build_count_app(
            recording(CountingUpdater, backward))).run(
            list(reversed(distinct)))
        assert len(forward) == len(distinct)
        assert forward == backward

    @settings(max_examples=30, deadline=None)
    @given(events_strategy())
    def test_sum_is_commutative_over_input(self, events):
        app = Application("sum")
        app.add_stream("S1", external=True)
        app.add_updater("U1", SummingUpdater, subscribes=["S1"])
        result = ReferenceExecutor(app).run(events)
        expected = {}
        for event in events:
            expected[event.key] = expected.get(event.key, 0) + event.value
        got = {k: s["total"] for k, s in result.slates_of("U1").items()}
        assert got == expected


class TestSlateProperties:
    @given(st.dictionaries(st.text(min_size=1, max_size=8),
                           st.integers(-1000, 1000), max_size=10))
    def test_replace_roundtrip(self, data):
        slate = Slate(SlateKey("U", "k"))
        slate.replace(data)
        assert slate.as_dict() == data

    @given(st.floats(min_value=0.001, max_value=1e5),
           st.floats(min_value=0.0, max_value=1e5),
           st.floats(min_value=0.0, max_value=1e5))
    def test_ttl_expiry_boundary(self, ttl, write_ts, delta):
        slate = Slate(SlateKey("U", "k"), ttl=ttl)
        slate.touch(write_ts)
        now = write_ts + delta
        elapsed = now - write_ts  # float rounding may differ from delta
        assert slate.expired(now) == (elapsed > ttl)
