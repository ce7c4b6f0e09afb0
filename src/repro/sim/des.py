"""A minimal deterministic discrete-event scheduler.

Events are ``(time, priority, seq, action, handle, args)`` entries in a
heap; ties on time break by priority then insertion sequence, so runs are
bit-for-bit reproducible. Callbacks receive the simulator (legacy form)
or a pre-bound argument tuple (:meth:`Simulator.schedule_call`) and may
schedule further events; a callback returns ``None`` or its final
continuation as a tail call (see :meth:`Simulator._drain`). This is the
substrate under :class:`repro.sim.runtime.SimRuntime`.

The entry layout is deliberately uniform: every entry is one 6-tuple, so
the run loop unpacks without length dispatch and the hot schedulers
(``schedule_call`` / ``schedule_call_in``) never build a closure per
event — the argument tuple rides in the entry itself. Ordering is
decided entirely by the first three fields, which are identical to the
historical 4-tuple layout, so schedules (and therefore reports) are
byte-identical across the representation change.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.clock import VirtualClock

#: A scheduled callback. It receives the simulator so it can schedule more.
Action = Callable[["Simulator"], None]


class SchedulerHook:
    """Decision-point hook for controlled scheduling.

    The default run loop resolves same-``(time, priority)`` ties by
    insertion sequence — an artificial total order that real deployments
    do not guarantee. A hook installed on :attr:`Simulator.hook` sees
    every group of *co-enabled* entries (equal time and priority, none
    cancelled) and picks which one runs next; the model checker
    (:mod:`repro.analysis.mc`) drives exhaustive exploration through
    this seam. With no hook installed the loop is byte-identical to the
    historical behaviour.
    """

    def choose(self, sim: "Simulator", at: float, priority: int,
               entries: List[Tuple]) -> int:
        """Pick the index of the entry to execute next.

        ``entries`` is the co-enabled group in canonical (seq) order;
        the non-chosen entries are pushed back and re-offered at the
        next iteration. Returning 0 everywhere reproduces the default
        schedule.
        """
        return 0

    def executed(self, sim: "Simulator", entry: Tuple) -> None:
        """Observe every executed entry (chosen or forced)."""


class ScheduledEvent:
    """Handle for a cancellable scheduled event.

    Cancellation is lazy: the heap entry stays in place and is skipped
    when popped, so cancelling is O(1) and determinism is unaffected.
    """

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the loop skips it when its time comes."""
        self.cancelled = True


class Simulator:
    """Deterministic event loop over a :class:`VirtualClock`.

    Args:
        clock: The clock to drive; a fresh one is created if omitted.
        max_steps: Safety valve against runaway schedules.
    """

    def __init__(self, clock: Optional[VirtualClock] = None,
                 max_steps: int = 50_000_000) -> None:
        self.clock = clock or VirtualClock()
        # Uniform entries: (time, priority, seq, action, handle, args).
        # handle is a ScheduledEvent for cancellable entries, else None;
        # args is None for legacy callbacks taking the simulator, else
        # the positional tuple the action is invoked with.
        self._heap: List[Tuple] = []
        self._seq = itertools.count()
        self._max_steps = max_steps
        self.steps = 0
        #: Steps executed inline by the trampoline (clock advanced
        #: analytically, no heap traffic). ``steps`` includes them.
        self.inlined_steps = 0
        #: Optional controlled-scheduling hook (model checking). None on
        #: every production path; the hot loop checks it once per
        #: ``run``/``run_until`` call, not per event.
        self.hook: Optional[SchedulerHook] = None

    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now()

    def schedule(self, at: float, action: Action, priority: int = 0) -> None:
        """Schedule ``action`` at absolute time ``at``.

        Lower ``priority`` runs first among same-time events (e.g. failure
        broadcasts before ordinary sends).
        """
        if at < self.clock.now():
            raise SimulationError(
                f"cannot schedule at {at} before now={self.clock.now()}"
            )
        heapq.heappush(
            self._heap, (at, priority, next(self._seq), action, None, None))

    def schedule_in(self, delay: float, action: Action,
                    priority: int = 0) -> None:
        """Schedule ``action`` after ``delay`` seconds."""
        self.schedule(self.clock.now() + max(0.0, delay), action, priority)

    def schedule_call(self, at: float, action: Callable,
                      *args) -> None:  # hot-path
        """Schedule ``action(*args)`` at absolute time ``at``.

        The hot-path spelling of :meth:`schedule`: the callee's arguments
        ride in the heap entry, so per-event callbacks need no closure or
        lambda allocation — callers pass a pre-bound method plus its
        operands.
        """
        if at < self.clock.now():
            raise SimulationError(
                f"cannot schedule at {at} before now={self.clock.now()}"
            )
        heapq.heappush(
            self._heap, (at, 0, next(self._seq), action, None, args))

    def schedule_call_in(self, delay: float, action: Callable,
                         *args) -> None:  # hot-path
        """Schedule ``action(*args)`` after ``delay`` seconds."""
        now = self.clock.now()
        at = now + delay if delay > 0.0 else now
        heapq.heappush(
            self._heap, (at, 0, next(self._seq), action, None, args))

    def schedule_cancellable(self, delay: float,
                             action: Action) -> ScheduledEvent:
        """Schedule ``action`` after ``delay``; returns a cancel handle.

        Used for linger timers that a size-triggered flush supersedes.
        """
        at = self.clock.now() + max(0.0, delay)
        handle = ScheduledEvent()
        heapq.heappush(
            self._heap,
            (at, 0, next(self._seq), action, handle, None))
        return handle

    def every(self, period: float, body: Action) -> None:
        """Run ``body`` every ``period`` seconds, first one period from
        now — the one spelling of a periodic background tick. The
        re-armed entry keeps the body's name: the model checker labels
        control-plane heap entries by ``__qualname__`` (``ctl:tick``,
        ``ctl:sweep``), so what a body is called is part of that
        contract.
        """
        @functools.wraps(body)
        def rearm(sim: "Simulator") -> None:
            body(sim)
            sim.schedule_in(period, rearm)

        self.schedule_in(period, rearm)

    def run_until(self, t_end: float) -> None:
        """Process events up to and including time ``t_end``."""
        self._drain(t_end)
        self.clock.advance_to(max(self.clock.now(), t_end))

    def run(self) -> None:
        """Process events until the schedule is empty."""
        self._drain(float("inf"))

    def _drain(self, t_end: float) -> None:  # hot-path
        """The event loop: pop, advance, run — with a tail-call trampoline.

        An action returns ``None`` (anything it wanted to run later is
        already in the heap) or its final continuation as a *tail*
        ``(at, action, args)`` with implicit priority 0. A tail is
        executed inline **iff it would have been the very next pop
        anyway**: a fresh entry carries the largest sequence number, so
        it precedes the heap top only when it sorts strictly before it
        on ``(time, priority)``. The action has fully returned by then,
        so push-then-pop and inline execution are indistinguishable —
        same step count, same sequence-number stream (the inlined tail
        consumes the ``next(seq)`` its push would have), same clock
        trajectory. Otherwise, and always past the horizon, the tail
        becomes an ordinary heap entry. Faults, timers and ring-change
        broadcasts live in the heap (broadcasts at priority ``-1``, so
        they win every tie against a tail), which is why a quiescent
        stretch is advanced inline only *up to* the next such entry.
        """
        if self.hook is not None:
            self._drain_hooked(t_end)
            return
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        seq = self._seq
        clock = self.clock
        max_steps = self._max_steps
        # Local counters, written back in ``finally`` so the totals stay
        # correct when an action raises. Heap pops are time-monotone
        # (every schedule validates ``at >= now``), so the clock is
        # stored directly, without its guard:
        # inlines: repro.sim.clock:VirtualClock.advance_to
        steps = self.steps
        inlined = self.inlined_steps
        try:
            while heap and heap[0][0] <= t_end:
                at, _priority, _seq, action, handle, args = pop(heap)
                if handle is not None and handle.cancelled:
                    continue
                clock._now = at
                steps += 1
                if steps > max_steps:
                    raise SimulationError(
                        f"simulation exceeded max_steps={max_steps}"
                    )
                tail = action(self) if args is None else action(*args)
                while tail is not None:
                    at, action, args = tail
                    if at > t_end or (heap and (
                            at > heap[0][0]
                            or (at == heap[0][0] and heap[0][1] <= 0))):
                        push(heap, (at, 0, next(seq), action, None, args))
                        break
                    next(seq)      # the seq the push would have consumed
                    clock._now = at
                    steps += 1
                    inlined += 1
                    if steps > max_steps:
                        raise SimulationError(
                            f"simulation exceeded max_steps={max_steps}"
                        )
                    tail = action(self) if args is None else action(*args)
        finally:
            self.steps = steps
            self.inlined_steps = inlined

    def _drain_hooked(self, t_end: float) -> None:
        """The :class:`SchedulerHook` variant of :meth:`_drain`.

        Identical semantics except that when two or more non-cancelled
        entries are co-enabled — equal ``(time, priority)`` at the heap
        top — the hook picks which one runs; the rest are pushed back
        (they keep their seq, so a hook that always answers 0 yields
        the exact default schedule). Entries at different times or
        priorities are never reordered: priority encodes intended
        causality (e.g. failure broadcasts before ordinary sends). A
        returned tail is always *pushed* (consuming the same seq the
        unhooked loop would), never inlined, so the hook sees every
        continuation as a heap entry it can reorder.
        """
        heap = self._heap
        hook = self.hook
        assert hook is not None
        while heap and heap[0][0] <= t_end:
            entry = heapq.heappop(heap)
            if entry[4] is not None and entry[4].cancelled:
                continue
            at, priority = entry[0], entry[1]
            group = [entry]
            while heap and heap[0][0] == at and heap[0][1] == priority:
                peer = heapq.heappop(heap)
                if peer[4] is not None and peer[4].cancelled:
                    continue
                group.append(peer)
            if len(group) > 1:
                index = hook.choose(self, at, priority, group)
                chosen = group.pop(index)
                for other in group:
                    heapq.heappush(heap, other)
            else:
                chosen = group[0]
            hook.executed(self, chosen)
            self.clock.advance_to(at)
            self.steps += 1
            if self.steps > self._max_steps:
                raise SimulationError(
                    f"simulation exceeded max_steps={self._max_steps}"
                )
            action, args = chosen[3], chosen[5]
            tail = action(self) if args is None else action(*args)
            if tail is not None:
                heapq.heappush(heap, (tail[0], 0, next(self._seq),
                                      tail[1], None, tail[2]))

    def pending(self) -> int:
        """Number of scheduled events not yet executed."""
        return len(self._heap)
