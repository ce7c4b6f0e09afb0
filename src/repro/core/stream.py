"""Streams and the stream registry (Section 3).

A *stream* is the sequence of all events with the same ``sid``, ordered by
timestamp with deterministic tie-breaking. Streams are **external** (fed by
the outside world, e.g. the Twitter Firehose) or **internal** (produced by
map/update functions). The distinction matters for source throttling: the
paper's deadlock argument (Section 5) relies on "no mappers nor updaters can
emit events into such [external] streams", which :class:`StreamRegistry`
enforces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Tuple

from repro.core.event import Event
from repro.errors import WorkflowError


@dataclass(frozen=True)
class StreamSpec:
    """Static description of a stream in a workflow.

    Attributes:
        sid: Unique stream ID (e.g. ``"S1"``).
        external: True if the stream is fed only from outside the
            application (operators may not publish into it).
        overflow: True if the stream is fed by the engine's queue-overflow
            mechanism (Section 4.3's "overflow stream") rather than by a
            declared operator; exempt from the must-have-a-publisher
            validation.
        description: Optional human-readable note for docs/tracing.
    """

    sid: str
    external: bool = False
    overflow: bool = False
    description: str = ""


class StreamRegistry:
    """Tracks the streams of one application and stamps publication order.

    The registry owns the per-stream monotonically increasing sequence
    numbers that implement the deterministic tie-break of Section 3. Every
    engine publishes events through a registry (or a per-engine clone of
    one) so that the resulting order is well-defined.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, StreamSpec] = {}
        self._seq: Dict[str, itertools.count] = {}

    def declare(self, spec: StreamSpec) -> StreamSpec:
        """Register a stream. Re-declaring the same sid must agree on kind."""
        existing = self._specs.get(spec.sid)
        if existing is not None:
            if existing.external != spec.external:
                raise WorkflowError(
                    f"stream {spec.sid!r} declared both external and internal"
                )
            return existing
        self._specs[spec.sid] = spec
        self._seq[spec.sid] = itertools.count()
        return spec

    def spec(self, sid: str) -> StreamSpec:
        """Return the spec for ``sid``; raise WorkflowError if unknown."""
        try:
            return self._specs[sid]
        except KeyError:
            raise WorkflowError(f"unknown stream {sid!r}") from None

    def __contains__(self, sid: str) -> bool:
        return sid in self._specs

    def sids(self) -> List[str]:
        """All declared stream IDs, sorted for determinism."""
        return sorted(self._specs)

    def external_sids(self) -> List[str]:
        """IDs of external (source) streams, sorted."""
        return sorted(s.sid for s in self._specs.values() if s.external)

    def internal_sids(self) -> List[str]:
        """IDs of internal (operator-produced) streams, sorted."""
        return sorted(s.sid for s in self._specs.values() if not s.external)

    def table(self, operators: Iterable[Any]
              ) -> Dict[str, Tuple[Iterator[int], Tuple[str, ...], bool]]:
        """The workflow as engines route it: sid -> (sequencer,
        subscriber names in operator order, external?) for every
        declared stream, given ``Application.operators()``.

        Engines build it once and stamp through it: ``next(sequencer)``
        is the sequence number :meth:`stamp` would assign. They call
        :meth:`stamp` only where it raises — an unknown sid, or an
        operator publishing into an external stream.
        """
        specs = list(operators)
        return {sid: (self._seq[sid],
                      tuple(s.name for s in specs if sid in s.subscribes),
                      self._specs[sid].external)
                for sid in self.sids()}

    def stamp(self, event: Event, from_operator: bool = False) -> Event:
        """Assign the next publication sequence number on the event's stream.

        Args:
            event: The event being published. Its ``sid`` must be declared.
            from_operator: True when an operator (map/update) is publishing.
                Operators may not publish into external streams — that is
                the invariant that keeps source throttling deadlock-free
                (Section 5).

        Returns:
            The same event with ``seq`` replaced by the stream's next
            sequence number.
        """
        spec = self.spec(event.sid)
        if from_operator and spec.external:
            raise WorkflowError(
                "operator attempted to publish into external stream "
                f"{event.sid!r}; external streams are input-only"
            )
        # with_seq keeps provenance (origin/oseq) intact: the
        # publication seq is the tie-break, not the replay identity.
        return event.with_seq(next(self._seq[event.sid]))

    def divert(self, event: Event, overflow_sid: str) -> Event:
        """``event`` re-stamped onto the degraded overflow stream.

        The copy pins the original's replay-stable ``(origin, oseq)``
        across the re-stamp: a source event's provenance falls back to
        ``(sid, seq)``, which stamping onto a new stream would otherwise
        rewrite. One event therefore carries one identity whether it
        travels the normal or the degraded path.
        """
        origin, oseq = event.provenance()
        return self.stamp(
            event.with_stream(overflow_sid)).with_provenance(origin, oseq)
