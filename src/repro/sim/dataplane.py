"""Data-plane batching: what a coalescing network link holds.

With ``SimConfig.batch_max_events > 0`` every remote send is buffered
on its ``(source machine, destination machine)`` link and shipped as
one envelope when the buffer fills, when its linger timer expires, or
when a ring change or a crash forces it out. The code that buffers,
ships and delivers is part of the simulator's compiled per-event path
(``SimRuntime._compile_handlers``, beside ``_send``); this module holds
its per-link state and its counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.obs.registry import CounterFields
from repro.sim.des import ScheduledEvent

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sim.runtime import _Envelope, _Machine


@dataclass(slots=True)
class DataPlaneCounters(CounterFields):
    """Event-coalescing accounting for one simulated run.

    Filled by the compiled data plane when batching is on
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


class _Link:
    """One ``(source, destination)`` link: a buffer, its events' summed
    size, the worst extra delay among them, at most one pending linger
    timer, the arrival time of the last envelope it shipped, and
    ``ship`` — the link's own flush, made once with the link, which is
    also what its linger timer runs."""

    __slots__ = ("src", "dst", "buffer", "bytes", "extra", "timer",
                 "last_arrival", "ship")

    def __init__(self, src: Optional[str], dst: "_Machine",
                 ship: Callable[..., None]) -> None:
        self.src = src          # None for M0/source sends
        self.dst = dst
        self.buffer: List["_Envelope"] = []
        self.bytes = 0
        self.extra = 0.0
        self.timer: Optional[ScheduledEvent] = None
        self.last_arrival = 0.0
        self.ship = ship
