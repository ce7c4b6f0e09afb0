"""Events and their ordering — the data model of MapUpdate (Section 3).

An event is the 4-tuple ``(sid, ts, key, value)``:

* ``sid`` — the ID of the stream the event belongs to,
* ``ts`` — a timestamp, global across all streams,
* ``key`` — an atomic grouping key (need not be unique across events),
* ``value`` — an arbitrary payload blob.

The paper requires that events be fed to operators "in the increasing order
of their timestamps, using a deterministic tie-breaking procedure". We make
that procedure explicit: ties are broken first by stream ID, then by a
per-stream sequence number stamped at publication time.
:meth:`Event.order_key` returns the total-order sort key used everywhere
(reference executor, local runtime, and simulator) so all engines agree on
what "timestamp order" means.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import Any, NamedTuple, Optional, Tuple

#: Type alias: keys are atomic values; we standardize on ``str`` keys.
Key = str

#: The timestamp type. Timestamps are global across streams. We use floats
#: (seconds); applications that need wall-clock semantics interpret them as
#: Unix epoch seconds.
Timestamp = float


class Event(NamedTuple):
    """A single immutable stream event ``<sid, ts, k, v>``.

    Events are tuple-backed: construction is one C-level ``tuple.__new__``
    rather than a per-field ``object.__setattr__`` chain, which matters
    because the simulator allocates several events per delivered message
    (publication, stamping, re-addressing). The record stays frozen —
    assignment raises :class:`dataclasses.FrozenInstanceError` exactly as
    the previous frozen-dataclass representation did — and field names,
    defaults, equality, and ``repr`` are unchanged.

    Attributes:
        sid: ID of the stream this event belongs to.
        ts: Global timestamp (seconds). Output events must carry a timestamp
            strictly greater than their input event's (Section 3), which
            engines enforce via :class:`repro.core.operators.Emitter`.
        key: Grouping key. All events with the same key reach the same
            updater (and therefore the same slate) in Muppet 1.0; in
            Muppet 2.0 at most two workers may process a key concurrently.
        value: Arbitrary payload. The paper uses JSON blobs (e.g., a whole
            tweet); anything picklable/JSON-encodable works here.
        seq: Per-stream publication sequence number, stamped by the stream
            registry at publish time. Part of the deterministic tie-break;
            not meaningful to applications.
        origin: Replay-stable provenance stream, set by engines running
            with ``delivery_semantics="effectively-once"``. ``None`` for
            source events (their origin is the external stream itself);
            derived events carry a chain like ``"S1>M1"`` so a replayed
            re-derivation produces the *same* identity as the original.
        oseq: Monotone per-``origin`` sequence id paired with ``origin``.
            Together ``(origin, oseq)`` is the identity the per-slate
            dedup watermarks compare against; see :meth:`provenance`.
    """

    sid: str
    ts: Timestamp
    key: Key
    value: Any = None
    seq: int = 0
    origin: Optional[str] = None
    oseq: int = 0

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def with_stream(self, sid: str) -> "Event":
        """Return a copy of this event re-addressed to stream ``sid``,
        not yet sequenced there."""
        return Event(sid, self.ts, self.key, self.value, 0,
                     self.origin, self.oseq)

    def with_seq(self, seq: int) -> "Event":
        """Return a copy carrying publication sequence number ``seq``.

        Equivalent to ``dataclasses.replace(self, seq=seq)`` but built
        with a direct constructor call: ``replace`` rebuilds its kwargs
        dict from the field list on every call, which dominates the
        stamp cost on the per-event hot path.
        """
        return Event(self.sid, self.ts, self.key, self.value, seq,
                     self.origin, self.oseq)

    def with_provenance(self, origin: Optional[str], oseq: int) -> "Event":
        """Return a copy carrying replay-stable identity ``(origin, oseq)``.

        Direct-constructor twin of ``dataclasses.replace(self,
        origin=..., oseq=...)`` for the effectively-once hot path.
        """
        return Event(self.sid, self.ts, self.key, self.value, self.seq,
                     origin, oseq)

    def provenance(self) -> Tuple[str, int]:
        """Replay-stable identity ``(origin, sequence)`` of this event.

        Source events fall back to ``(sid, seq)``: the publication
        sequence is stamped exactly once at injection, so a journaled
        copy re-sent after a crash carries the same pair. Derived events
        (operator outputs under effectively-once delivery) carry an
        explicit :attr:`origin`/:attr:`oseq` assigned deterministically
        from their input event, so re-derivation on replay converges on
        the same identity.
        """
        if self.origin is not None:
            return self.origin, self.oseq
        return self.sid, self.seq

    def order_key(self) -> Tuple[Timestamp, str, int]:
        """Total-order sort key: ``(ts, sid, seq)``.

        Sorting any set of events by this key yields the unique order in
        which the MapUpdate semantics feeds them to a subscribing function:
        increasing timestamp, ties broken by stream ID then publication
        sequence (the "deterministic tie-breaking procedure" of Section 3).
        """
        return (self.ts, self.sid, self.seq)

    def size_bytes(self) -> int:
        """Approximate serialized size of this event in bytes.

        Used by cost models (network transfer, queue memory accounting).
        Strings count their UTF-8 length; other payloads are sized via their
        ``repr`` as a cheap, deterministic proxy.
        """
        if isinstance(self.value, (bytes, bytearray)):
            payload = len(self.value)
        elif isinstance(self.value, str):
            payload = len(self.value.encode("utf-8"))
        elif self.value is None:
            payload = 0
        else:
            payload = len(repr(self.value))
        return 16 + len(self.sid) + len(self.key) + payload


#: Sequence-id stride between consecutive parent events on a derived
#: origin stream. One operator invocation may emit up to this many
#: events before derived ids would collide with the next parent's — far
#: beyond any MapUpdate workflow in practice; the simulator raises past it.
ORIGIN_SEQ_STRIDE = 1 << 20


def derive_origin(parent: Event, operator: str, ordinal: int) -> Tuple[str, int]:
    """Deterministic provenance for the ``ordinal``-th output of one
    invocation of ``operator`` on ``parent``.

    The derived origin chains the parent's origin with the operator name
    (``"S1>M1"``, ``"S1>M1>U1"``, ...); the derived sequence folds the
    parent's sequence and the output position into one monotone integer.
    Because operators are deterministic (Section 3), replaying ``parent``
    re-derives byte-identical ``(origin, oseq)`` pairs — which is what
    lets downstream dedup watermarks recognize re-derived duplicates.

    The simulator's finish station (``SimRuntime._compile_finish``)
    derives output ids with the same arithmetic, read from the parent's
    tuple slots, under an ``# inlines:`` marker naming this function.
    """
    origin, oseq = parent.provenance()
    return f"{origin}>{operator}", oseq * ORIGIN_SEQ_STRIDE + ordinal


@dataclass(slots=True)
class EventCounter:
    """Mutable counters for event accounting (published/processed/lost).

    The paper logs lost events rather than retrying them ("The event that
    failed to reach B is lost (and logged as lost)", Section 4.3). Engines
    share one of these so tests and benchmarks can assert loss bounds.
    """

    published: int = 0
    processed: int = 0
    dropped_overflow: int = 0
    lost_failure: int = 0
    diverted_overflow_stream: int = 0
    throttled: int = 0
    #: Update applications skipped by probabilistic thinning (IPW
    #: reconstruction keeps the counters unbiased, so these are a
    #: precision cost, not data loss — excluded from :meth:`lost_total`).
    thinned: int = 0

    def lost_total(self) -> int:
        """Events that permanently left the system without being processed."""
        return self.dropped_overflow + self.lost_failure

    def snapshot(self) -> dict:
        """Return a plain-dict copy, handy for logging and assertions."""
        return {
            "published": self.published,
            "processed": self.processed,
            "dropped_overflow": self.dropped_overflow,
            "lost_failure": self.lost_failure,
            "diverted_overflow_stream": self.diverted_overflow_stream,
            "throttled": self.throttled,
            "thinned": self.thinned,
        }
