"""Data-plane batching: coalescing events per network link.

With ``SimConfig.batch_max_events > 0`` every remote send is buffered
on its ``(source machine, destination machine)`` link and shipped as
one envelope when the buffer fills, when its linger timer expires, or
when a ring change or a crash forces it out. :class:`LinkBatcher` is
built only then; ``_send`` hands it envelopes through a closure cell.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sim.des import ScheduledEvent, Simulator

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sim.runtime import SimRuntime, _Envelope, _Machine


@dataclass(slots=True)
class DataPlaneCounters:
    """Event-coalescing accounting for one simulated run.

    Filled by :class:`LinkBatcher` when data-plane batching is on
    (``SimConfig.batch_max_events > 0``); all-zero otherwise. Printed
    under ``dataplane.*`` in ``SimReport.counter_report`` — the
    batching-determinism tests exclude these lines (batching
    legitimately changes how many envelopes fly) while asserting
    everything else is identical.
    """

    #: Coalesced envelopes shipped (one network message each).
    batches_sent: int = 0
    #: Events carried inside those envelopes.
    batched_events: int = 0
    #: Flushes triggered by the linger timer expiring.
    linger_flushes: int = 0
    #: Flushes triggered by a buffer reaching ``batch_max_events``.
    size_flushes: int = 0
    #: Flushes forced by ring changes or machine failure handling.
    forced_flushes: int = 0
    #: Largest single batch shipped.
    max_batch_events: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict snapshot (insertion-ordered, deterministic)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class _Link:
    """One ``(source, destination)`` link: a buffer, the worst extra
    delay among what it holds, at most one linger timer, and the
    arrival time of the last envelope it shipped."""

    __slots__ = ("src", "dst", "buffer", "extra", "timer", "last_arrival")

    def __init__(self, src: Optional[str], dst: "_Machine") -> None:
        self.src = src          # None for M0/source sends
        self.dst = dst
        self.buffer: List["_Envelope"] = []
        self.extra = 0.0
        self.timer: Optional[ScheduledEvent] = None
        self.last_arrival = 0.0


class LinkBatcher:
    """Buffers remote sends per link and ships them as one envelope."""

    def __init__(self, rt: "SimRuntime") -> None:
        self.rt = rt
        self.counters = DataPlaneCounters()
        self._max_events = rt.config.batch_max_events
        self._linger_s = rt.config.batch_linger_s
        #: Links in the order their current buffers began to fill — the
        #: order forced flushes ship them in.
        self._links: Dict[Tuple[Optional[str], str], _Link] = {}

    def enqueue(self, envelope: "_Envelope", from_machine: Optional[str],
                machine: "_Machine", extra_delay: float) -> None:
        """Buffer one event on its (source, destination) link.

        The buffer ships when it reaches ``batch_max_events`` or when
        the per-link linger timer expires, whichever comes first.
        """
        key = (from_machine, machine.name)
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = _Link(from_machine, machine)
        elif not link.buffer:  # refilling: it now ships after the others
            self._links[key] = self._links.pop(key)
        link.buffer.append(envelope)
        self.counters.batched_events += 1
        if extra_delay > link.extra:
            link.extra = extra_delay
        if len(link.buffer) >= self._max_events:
            self.counters.size_flushes += 1
            self._flush(link, trigger="size")
            return
        if link.timer is None:
            link.timer = self.rt.sim.schedule_cancellable(
                self._linger_s, lambda sim: self._linger_expired(link))

    def _linger_expired(self, link: _Link) -> None:
        link.timer = None
        if link.buffer:
            self.counters.linger_flushes += 1
            self._flush(link, trigger="linger")

    def _flush(self, link: _Link, trigger: str = "forced") -> None:
        """Ship one link's buffer as a single coalesced envelope.

        One per-message network latency is paid for the whole batch,
        plus bandwidth for the combined payload bytes; the fault
        injector decides one fate for the envelope (a dropped batch
        loses every event in it, like a dropped TCP connection). An
        arrival-time clamp keeps the link FIFO: a later, smaller batch
        must not overtake an earlier, larger one mid-flight.
        """
        rt = self.rt
        if link.timer is not None:
            link.timer.cancel()
            link.timer = None
        envelopes, extra = link.buffer, link.extra
        link.buffer, link.extra = [], 0.0
        machine = link.dst
        if not machine.alive:
            for env in envelopes:
                rt._handle_dead_destination(machine, env)
            return
        now = rt.sim.now()
        total_bytes = sum(e.event.size_bytes() for e in envelopes)
        delay = extra + rt.cluster.network.transfer_time(
            total_bytes, same_machine=False)
        if rt._injector is not None:
            delivered, delay = rt._injector.message_fate(
                link.src, machine.name, now, delay)
            if not delivered:
                return
        arrival = max(now + delay, link.last_arrival)
        link.last_arrival = arrival
        self.counters.batches_sent += 1
        if len(envelopes) > self.counters.max_batch_events:
            self.counters.max_batch_events = len(envelopes)
        if rt._trace is not None:
            rt._trace.emit(now, "batch_flush", src=link.src,
                           dst=machine.name, events=len(envelopes),
                           trigger=trigger)

        def deliver_all(sim: Simulator) -> None:
            for env in envelopes:
                # A heap-dispatched _deliver returns the started event's
                # finish as its tail; mid-batch it is scheduled at once,
                # so sequence numbers are consumed in the same order.
                tail = rt._deliver(machine, env)
                if tail is not None:
                    sim.schedule_call(tail[0], tail[1], *tail[2])

        rt.sim.schedule(arrival, deliver_all)

    def flush_all(self, to: Optional["_Machine"] = None) -> None:
        """Force every buffered batch onto the wire (ring changes), or
        only those headed ``to`` one machine (it just died)."""
        for link in list(self._links.values()):
            if link.buffer and (to is None or link.dst is to):
                self.counters.forced_flushes += 1
                self._flush(link)
