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
updates they must reach the same slate fixpoints; run with a single worker
they must reproduce its streams exactly.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.application import Application, OperatorSpec
from repro.core.event import Event, EventCounter, Key, Timestamp
from repro.core.operators import (TIMER_SID_PREFIX, Context, Mapper, Operator,
                                  TimerRequest, Updater)
from repro.core.slate import Slate, SlateKey
from repro.errors import SimulationError, WorkflowError
from repro.muppet.queues import BoundedQueue, QueueStats


@dataclass
class ReferenceResult:
    """Output of a reference run: streams, slates, and counters.

    Attributes:
        streams: Every event ever published, per stream, in publication
            order (which equals processing order for this executor).
        slates: Final slate objects, keyed by :class:`SlateKey`.
        counters: Event accounting.
        slate_update_log: The full sequence of (slate key, field snapshot)
            after each update — the paper's "sequences of slate updates",
            used to compare engines against the reference.
    """

    streams: Dict[str, List[Event]]
    slates: Dict[SlateKey, Slate]
    counters: EventCounter
    slate_update_log: List[Tuple[SlateKey, Dict[str, Any]]]

    def slate(self, updater: str, key: Key) -> Optional[Slate]:
        """The final slate for (updater, key), or None if never created."""
        return self.slates.get(SlateKey(updater, key))

    def slates_of(self, updater: str) -> Dict[Key, Slate]:
        """All final slates belonging to one update function."""
        return {sk.key: s for sk, s in self.slates.items()
                if sk.updater == updater}

    def events_on(self, sid: str) -> List[Event]:
        """Events published to stream ``sid`` (empty list if none)."""
        return self.streams.get(sid, [])

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
        max_events: Safety cap on total processed deliveries; cyclic
            workflows could otherwise run forever. Exceeding the cap raises
            :class:`SimulationError`.
        max_pending: Optional bound on the pending-delivery backlog (the
            scheduling heap). The reference engine has no overflow
            mechanism — no drop/divert/throttle — so the bound is strict:
            exceeding it raises :class:`QueueOverflowError` via
            :meth:`BoundedQueue.put`. ``None`` (the default) keeps the
            backlog unbounded, matching Section 3's idealized executor.
    """

    def __init__(self, app: Application, max_events: int = 1_000_000,
                 max_pending: Optional[int] = None) -> None:
        app.validate()
        self.app = app
        self.max_events = max_events
        # Admission ledger mirroring the scheduling heap: every heappush
        # is a put(), every heappop a poll(). Its stats expose the peak
        # pending backlog; with max_pending set it turns runaway fan-out
        # into a hard QueueOverflowError instead of unbounded memory.
        self._pending: BoundedQueue[None] = BoundedQueue(max_size=max_pending)
        # One shared instance per operator: the reference engine is
        # single-threaded, so sharing is safe and matches Muppet 2.0.
        self._instances: Dict[str, Operator] = {
            spec.name: spec.instantiate() for spec in app.operators()
        }
        self._slates: Dict[SlateKey, Slate] = {}
        self._counters = EventCounter()
        self._slate_log: List[Tuple[SlateKey, Dict[str, Any]]] = []
        self._published: Dict[str, List[Event]] = {}
        self._timer_seq = itertools.count()

    # -- public API ----------------------------------------------------------
    def run(self, source_events: Iterable[Event]) -> ReferenceResult:
        """Feed ``source_events`` (external streams only) to completion.

        Events may arrive in any order; the executor sorts the whole run
        into the global timestamp order first, then processes each delivery,
        interleaving operator-published events and timers at their correct
        positions.
        """
        heap: List[Tuple[Tuple[Timestamp, str, int], int, object]] = []
        tie = itertools.count()

        for event in source_events:
            spec = self.app.streams.spec(event.sid)
            if not spec.external:
                raise WorkflowError(
                    "source event addressed to internal stream "
                    f"{event.sid!r}; only external streams accept input"
                )
            stamped = self.app.streams.stamp(event)
            self._record(stamped)
            self._pending.put(None)
            heapq.heappush(heap, (stamped.order_key(), next(tie), stamped))

        processed = 0
        while heap:
            _, __, item = heapq.heappop(heap)
            self._pending.poll()
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
                self._pending.put(None)
                heapq.heappush(heap, (out.order_key(), next(tie), out))
            for timer in timers:
                self._pending.put(None)
                order = (timer.at_ts, TIMER_SID_PREFIX + timer.updater,
                         next(self._timer_seq))
                heapq.heappush(heap, (order, next(tie), timer))

        return ReferenceResult(
            streams=self._published,
            slates=self._slates,
            counters=self._counters,
            slate_update_log=self._slate_log,
        )

    @property
    def pending_stats(self) -> QueueStats:
        """Admission-ledger stats; ``peak_depth`` is the peak backlog."""
        return self._pending.stats

    # -- internals -------------------------------------------------------------
    def _record(self, event: Event) -> None:
        self._published.setdefault(event.sid, []).append(event)
        self._counters.published += 1

    def _stamp_and_record(self, outputs: List[Event]) -> List[Event]:
        stamped = []
        for out in outputs:
            event = self.app.streams.stamp(out, from_operator=True)
            self._record(event)
            stamped.append(event)
        return stamped

    def _deliver(self, event: Event) -> Tuple[List[Event], List[TimerRequest]]:
        """Feed one event to every subscriber, in sorted operator order."""
        outputs: List[Event] = []
        timers: List[TimerRequest] = []
        for spec in self.app.subscribers_of(event.sid):
            self._counters.processed += 1
            ctx = Context(spec.name, event.ts, spec.publishes, event.key)
            instance = self._instances[spec.name]
            if spec.kind == "map":
                assert isinstance(instance, Mapper)
                instance.map(ctx, event)
            else:
                assert isinstance(instance, Updater)
                slate = self._slate_for(instance, spec, event.key, event.ts)
                instance.update(ctx, event, slate)
                slate.touch(event.ts)
                self._slate_log.append(
                    (slate.slate_key, slate.as_dict())
                )
            outputs.extend(self._stamp_and_record(ctx.emitted))
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
        self._slate_log.append((slate.slate_key, slate.as_dict()))
        outputs = self._stamp_and_record(ctx.emitted)
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
