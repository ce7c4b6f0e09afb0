"""Events: immutability, ordering, sizing, counters."""

import dataclasses

import pytest

from repro.core.event import Event, EventCounter


class TestEvent:
    def test_fields(self):
        event = Event("S1", 1.5, "k", {"x": 1}, seq=3)
        assert event.sid == "S1"
        assert event.ts == 1.5
        assert event.key == "k"
        assert event.value == {"x": 1}
        assert event.seq == 3

    def test_immutable(self):
        event = Event("S1", 1.0, "k")
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.ts = 2.0

    def test_default_value_and_seq(self):
        event = Event("S1", 0.0, "k")
        assert event.value is None
        assert event.seq == 0

    def test_with_stream_readdresses(self):
        event = Event("S1", 1.0, "k", "v", seq=9)
        moved = event.with_stream("S2")
        assert moved.sid == "S2"
        assert moved.seq == 0
        assert moved.ts == 1.0 and moved.key == "k" and moved.value == "v"
        # original untouched
        assert event.sid == "S1" and event.seq == 9

    def test_equality_is_structural(self):
        assert Event("S1", 1.0, "k", "v") == Event("S1", 1.0, "k", "v")
        assert Event("S1", 1.0, "k", "v") != Event("S1", 1.0, "k", "w")


class TestOrdering:
    def test_order_by_timestamp_first(self):
        early = Event("S9", 1.0, "k")
        late = Event("S1", 2.0, "k")
        assert early.order_key() < late.order_key()

    def test_tie_broken_by_stream_id(self):
        a = Event("S1", 1.0, "k")
        b = Event("S2", 1.0, "k")
        assert a.order_key() < b.order_key()

    def test_tie_broken_by_sequence_last(self):
        first = Event("S1", 1.0, "k", seq=0)
        second = Event("S1", 1.0, "k", seq=1)
        assert first.order_key() < second.order_key()

    def test_sorting_is_deterministic_total_order(self):
        events = [Event("S2", 1.0, "a", seq=1), Event("S1", 2.0, "b"),
                  Event("S1", 1.0, "c", seq=2), Event("S2", 1.0, "d")]
        ordered = sorted(events, key=Event.order_key)
        assert [e.key for e in ordered] == ["c", "d", "a", "b"]


class TestSizeBytes:
    def test_bytes_payload(self):
        event = Event("S", 0.0, "k", b"12345")
        assert event.size_bytes() == 16 + 1 + 1 + 5

    def test_str_payload_utf8(self):
        event = Event("S", 0.0, "k", "héllo")  # é is 2 bytes in UTF-8
        assert event.size_bytes() == 16 + 1 + 1 + 6

    def test_none_payload(self):
        assert Event("S", 0.0, "k").size_bytes() == 18

    def test_other_payload_uses_repr(self):
        event = Event("S", 0.0, "k", [1, 2, 3])
        assert event.size_bytes() == 18 + len(repr([1, 2, 3]))


class TestEventCounter:
    def test_starts_at_zero(self):
        counter = EventCounter()
        assert counter.published == 0
        assert counter.lost_total() == 0

    def test_lost_total_sums_drops_and_failures(self):
        counter = EventCounter(dropped_overflow=3, lost_failure=4)
        assert counter.lost_total() == 7

    def test_diverted_not_counted_as_lost(self):
        counter = EventCounter(diverted_overflow_stream=5)
        assert counter.lost_total() == 0

    def test_snapshot_roundtrip(self):
        counter = EventCounter(published=2, processed=1, throttled=9)
        snap = counter.snapshot()
        assert snap["published"] == 2
        assert snap["processed"] == 1
        assert snap["throttled"] == 9
        assert set(snap) == {"published", "processed", "dropped_overflow",
                             "lost_failure", "diverted_overflow_stream",
                             "throttled", "thinned"}

    def test_thinned_not_counted_as_lost(self):
        counter = EventCounter(thinned=11)
        assert counter.lost_total() == 0


class TestProvenance:
    """Replay-stable identities for effectively-once delivery."""

    def test_source_provenance_is_sid_and_seq(self):
        event = Event(sid="S1", ts=1.0, key="k", seq=7)
        assert event.provenance() == ("S1", 7)

    def test_explicit_origin_wins(self):
        event = Event(sid="S2", ts=1.0, key="k",
                      seq=99).with_provenance("S1>M1", 12)
        assert event.provenance() == ("S1>M1", 12)

    def test_derive_origin_chains_and_strides(self):
        from repro.core.event import ORIGIN_SEQ_STRIDE, derive_origin

        parent = Event(sid="S1", ts=1.0, key="k", seq=3)
        origin, oseq = derive_origin(parent, "M1", ordinal=2)
        assert origin == "S1>M1"
        assert oseq == 3 * ORIGIN_SEQ_STRIDE + 2

    def test_derivation_is_replay_stable(self):
        """The same parent through the same operator yields the same
        identity — regardless of when the registry stamps the copy."""
        from repro.core.event import derive_origin

        parent = Event(sid="S1", ts=1.0, key="k", seq=3)
        replayed_copy = Event(sid="S1", ts=1.0, key="k", seq=3)
        assert (derive_origin(parent, "M1", 0)
                == derive_origin(replayed_copy, "M1", 0))

    def test_second_hop_identities_stay_distinct(self):
        from repro.core.event import derive_origin

        parent = Event(sid="S1", ts=1.0, key="k", seq=3)
        origin, oseq = derive_origin(parent, "M1", 0)
        child = Event(sid="S2", ts=1.1, key="k").with_provenance(origin, oseq)
        grand_origin, grand_oseq = derive_origin(child, "U1", 0)
        assert grand_origin == "S1>M1>U1"
        # Different ordinals of the same invocation never collide.
        assert derive_origin(child, "U1", 1)[1] == grand_oseq + 1
