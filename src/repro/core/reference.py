"""Reference executor: the *definition* of MapUpdate semantics (Section 3).

Section 3 proves that a MapUpdate application is well-defined — it generates
unique streams and slate-update sequences — provided that (a) functions are
deterministic, (b) events are fed in increasing timestamp order with
deterministic tie-breaking, and (c) output timestamps strictly exceed input
timestamps. "Ideally, a MapUpdate implementation should produce these exact
streams and slate updates. Due to practical constraints, however, it often
can only approximate them."

:class:`ReferenceExecutor` is the executable form of that ideal: a
single-threaded engine that processes every event in exact global order. It
is deliberately slow and simple. The distributed engines (local threads,
Muppet 1.0/2.0 on the simulator) are tested against it: with commutative
updates they must reach the same slate fixpoints.

Like a slate, which "summarizes all events with key k that an update
function U has seen so far", a run holds per-key state, not the stream:
its slates, the operator outputs and timers in flight and, only for
input that is out of timestamp order, its stamped source list. Its
:class:`ReferenceResult` keeps the final slates, the event counters and
the published events of only the streams named in ``record``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Tuple

from repro.core.application import Application, OperatorSpec
from repro.core.event import Event, EventCounter, Key, Timestamp
from repro.core.operators import (TIMER_SID_PREFIX, Context, Mapper, Operator,
                                  TimerRequest, Updater)
from repro.core.slate import Slate, SlateKey
from repro.core.stream import StreamRegistry
from repro.errors import ConfigurationError, SimulationError, WorkflowError


@dataclass
class ReferenceResult:
    """Output of a reference run: slates, counters and recorded streams.

    Attributes:
        streams: For each stream named in the executor's ``record``, every
            event published to it, in publication order: processing
            order for an internal stream, input order for an external
            one. Other streams are not kept; ``counters.published``
            still counts their events.
        slates: Final slate objects, keyed by :class:`SlateKey`.
        counters: Event accounting.
    """

    streams: Dict[str, List[Event]]
    slates: Dict[SlateKey, Slate]
    counters: EventCounter

    def slates_of(self, updater: str) -> Dict[Key, Slate]:
        """All final slates belonging to one update function."""
        return {sk.key: s for sk, s in self.slates.items()
                if sk.updater == updater}

    def events_on(self, sid: str) -> List[Event]:
        """Events published to the recorded stream ``sid``.

        Raises :class:`ConfigurationError` for a stream the run did not
        record, rather than answering an empty list.
        """
        try:
            return self.streams[sid]
        except KeyError:
            raise ConfigurationError(
                f"stream {sid!r} was not recorded; name it in "
                "ReferenceExecutor(..., record=...)") from None

    def numeric_slates(self, updater: str, fld: str) -> Dict[str, float]:
        """One updater's final ``{key: float(slate[fld])}`` ground truth.

        The shedding error measurement compares an overloaded engine run
        against this exact mapping (the reference never sheds). Slates
        missing the field are skipped; non-numeric values raise.
        """
        exact: Dict[str, float] = {}
        for key, slate in self.slates_of(updater).items():
            if fld not in slate:
                continue
            value = slate[fld]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise WorkflowError(
                    f"slate ({updater}, {key!r}).{fld} holds non-numeric "
                    f"{value!r}; numeric_slates needs a numeric field")
            exact[key] = float(value)
        return exact


class ReferenceExecutor:
    """Single-threaded, exactly-ordered MapUpdate executor.

    Args:
        app: A validated :class:`Application`.
        max_events: Safety cap on the events and timers a run takes in
            order (an event counts once, however many operators it
            reaches); cyclic workflows could otherwise run forever.
            Exceeding the cap raises :class:`SimulationError`.
        record: The streams whose published events the result keeps
            (:meth:`ReferenceResult.events_on`). An undeclared stream
            raises :class:`ConfigurationError`.
    """

    def __init__(self, app: Application, max_events: int = 1_000_000,
                 record: Iterable[str] = ()) -> None:
        app.validate()
        self.app = app
        self.max_events = max_events
        # One shared instance per operator: the reference engine is
        # single-threaded, so sharing is safe and matches Muppet 2.0.
        self._instances: Dict[str, Operator] = {
            spec.name: spec.instantiate() for spec in app.operators()
        }
        # Each stream's (subscriber, instance) pairs, in sorted order.
        self._routes = {sid: tuple((spec, self._instances[spec.name])
                                   for spec in app.subscribers_of(sid))
                        for sid in app.streams.sids()}
        self._slates: Dict[SlateKey, Slate] = {}
        self._counters = EventCounter()
        self._streams: Dict[str, List[Event]] = {}
        for sid in record:
            if sid not in app.streams:
                raise ConfigurationError(
                    f"record names undeclared stream {sid!r}")
            self._streams[sid] = []
        self._timer_seq = itertools.count()
        # Its own sequencers: a run's seq values do not depend on what
        # stamped through the application's registry before it.
        self._registry = StreamRegistry()
        for sid in app.streams.sids():
            self._registry.declare(app.streams.spec(sid))

    # -- public API ----------------------------------------------------------
    def run(self, source_events: Iterable[Event]) -> ReferenceResult:
        """Feed ``source_events`` (external streams only) to completion.

        Events may arrive in any order. Input already in ``(ts, sid)``
        order is stamped as the run reaches it; other input is stamped in
        input order and sorted once. One loop then takes whichever comes
        first, the next source event or the earliest operator output or
        timer, so every delivery happens at its global position.
        """
        events = (source_events if isinstance(source_events, (list, tuple))
                  else list(source_events))
        for event in events:
            if not self._registry.spec(event.sid).external:
                raise WorkflowError(
                    "source event addressed to internal stream "
                    f"{event.sid!r}; only external streams accept input"
                )
        pending: Iterator[Event] = map(self._publish, events)
        if not all((a.ts, a.sid) <= (b.ts, b.sid)
                   for a, b in itertools.pairwise(events)):
            pending = iter(sorted(pending, key=Event.order_key))

        heap: List[Tuple[Tuple[Timestamp, str, int], int, object]] = []
        tie = itertools.count()
        source = next(pending, None)
        processed = 0
        while source is not None or heap:
            if heap and (source is None or heap[0][0] < source.order_key()):
                item = heapq.heappop(heap)[2]
            else:
                item, source = source, next(pending, None)
            processed += 1
            if processed > self.max_events:
                raise SimulationError(
                    f"reference run exceeded max_events={self.max_events}; "
                    "the workflow may loop without terminating"
                )
            if isinstance(item, TimerRequest):
                outputs, timers = self._fire_timer(item)
            else:
                outputs, timers = self._deliver(item)  # type: ignore[arg-type]
            for out in outputs:
                heapq.heappush(heap, (out.order_key(), next(tie), out))
            for timer in timers:
                order = (timer.at_ts, TIMER_SID_PREFIX + timer.updater,
                         next(self._timer_seq))
                heapq.heappush(heap, (order, next(tie), timer))

        return ReferenceResult(
            streams=self._streams,
            slates=self._slates,
            counters=self._counters,
        )

    # -- internals -------------------------------------------------------------
    def _publish(self, event: Event, from_operator: bool = False) -> Event:
        """Stamp ``event`` on the executor's own sequencers, count it and
        record it if its stream is recorded."""
        event = self._registry.stamp(event, from_operator)
        self._counters.published += 1
        recorded = self._streams.get(event.sid)
        if recorded is not None:
            recorded.append(event)
        return event

    def _deliver(self, event: Event) -> Tuple[List[Event], List[TimerRequest]]:
        """Feed one event to its subscribers, routed by the table built once."""
        outputs: List[Event] = []
        timers: List[TimerRequest] = []
        for spec, instance in self._routes[event.sid]:
            self._counters.processed += 1
            ctx = Context(spec.name, event.ts, spec.publishes, event.key)
            if spec.kind == "map":
                assert isinstance(instance, Mapper)
                instance.map(ctx, event)
            else:
                assert isinstance(instance, Updater)
                slate = self._slate_for(instance, spec, event.key, event.ts)
                instance.update(ctx, event, slate)
                slate.touch(event.ts)
            outputs.extend(self._publish(out, True) for out in ctx.emitted)
            timers.extend(ctx.timers)
        return outputs, timers

    def _fire_timer(
        self, timer: TimerRequest
    ) -> Tuple[List[Event], List[TimerRequest]]:
        spec = self.app.operator(timer.updater)
        instance = self._instances[spec.name]
        assert isinstance(instance, Updater)
        ctx = Context(spec.name, timer.at_ts, spec.publishes, timer.key)
        slate = self._slate_for(instance, spec, timer.key, timer.at_ts)
        instance.on_timer(ctx, timer.key, slate, timer.payload)
        slate.touch(timer.at_ts)
        outputs = [self._publish(out, True) for out in ctx.emitted]
        return outputs, list(ctx.timers)

    def _slate_for(self, instance: Updater, spec: OperatorSpec, key: Key,
                   now: Timestamp) -> Slate:
        """Fetch (or initialize, or TTL-reset) the slate for (spec, key)."""
        slate_key = SlateKey(spec.name, key)
        slate = self._slates.get(slate_key)
        if slate is not None and slate.expired(now):
            slate = None  # TTL elapsed: "resetting to an empty slate"
        if slate is None:
            slate = Slate(slate_key, instance.init_slate(key),
                          ttl=instance.slate_ttl, created_ts=now)
            self._slates[slate_key] = slate
        return slate
