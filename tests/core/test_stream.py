"""Streams: registry, stamping, external-stream protection, merging."""

import pytest

from repro.core.event import Event
from repro.core.stream import StreamRegistry, StreamSpec
from repro.errors import WorkflowError


def registry(*specs):
    """A registry with ``specs`` declared, in order."""
    reg = StreamRegistry()
    for spec in specs:
        reg.declare(spec)
    return reg


class TestStreamRegistry:
    def test_declare_and_lookup(self):
        reg = registry(StreamSpec("S1", external=True))
        assert "S1" in reg
        assert reg.spec("S1").external

    def test_unknown_stream_raises(self):
        reg = StreamRegistry()
        with pytest.raises(WorkflowError, match="unknown stream"):
            reg.spec("nope")

    def test_redeclare_same_kind_is_idempotent(self):
        reg = StreamRegistry()
        reg.declare(StreamSpec("S1"))
        reg.declare(StreamSpec("S1"))
        assert reg.sids() == ["S1"]

    def test_redeclare_conflicting_kind_raises(self):
        reg = registry(StreamSpec("S1", external=True))
        with pytest.raises(WorkflowError, match="external and internal"):
            reg.declare(StreamSpec("S1", external=False))

    def test_sid_partition(self):
        reg = registry(StreamSpec("A", external=True),
                       StreamSpec("B"), StreamSpec("C"))
        assert reg.external_sids() == ["A"]
        assert reg.internal_sids() == ["B", "C"]
        assert reg.sids() == ["A", "B", "C"]


class TestStamping:
    def test_sequence_numbers_increase_per_stream(self):
        reg = registry(StreamSpec("S1"), StreamSpec("S2"))
        a = reg.stamp(Event("S1", 0.0, "k"))
        b = reg.stamp(Event("S1", 0.0, "k"))
        c = reg.stamp(Event("S2", 0.0, "k"))
        assert (a.seq, b.seq) == (0, 1)
        assert c.seq == 0  # independent counter per stream

    def test_stamp_preserves_other_fields(self):
        reg = registry(StreamSpec("S1"))
        stamped = reg.stamp(Event("S1", 3.0, "k", "payload"))
        assert (stamped.sid, stamped.ts, stamped.key, stamped.value) == \
            ("S1", 3.0, "k", "payload")

    def test_operator_cannot_publish_into_external_stream(self):
        """Section 5's deadlock-freedom invariant for source throttling."""
        reg = registry(StreamSpec("EXT", external=True))
        with pytest.raises(WorkflowError, match="input-only"):
            reg.stamp(Event("EXT", 0.0, "k"), from_operator=True)

    def test_source_can_publish_into_external_stream(self):
        reg = registry(StreamSpec("EXT", external=True))
        assert reg.stamp(Event("EXT", 0.0, "k")).seq == 0

    def test_stamp_unknown_stream_raises(self):
        reg = StreamRegistry()
        with pytest.raises(WorkflowError):
            reg.stamp(Event("S1", 0.0, "k"))
