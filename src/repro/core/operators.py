"""Map and update functions — the user-facing operator API (Section 3).

This is the Python rendering of the paper's ``Mapper``/``Updater`` Java
interfaces (Appendix A, Figures 3 and 4). Applications subclass
:class:`Mapper` or :class:`Updater`; the engine hands each invocation a
:class:`Context` (the analog of the paper's ``PerformerUtilities``
"submitter") through which operators publish output events.

Semantics enforced here, straight from Section 3:

* Output event timestamps must be **strictly greater** than the input
  event's timestamp, so cyclic workflows stay well-defined. ``publish``
  defaults the timestamp to ``input.ts + min_ts_increment`` and rejects
  non-advancing explicit timestamps with :class:`TimestampError`.
* Mappers are memoryless; only updaters receive slates.
* Updaters initialize their own slates on first access (``init_slate``),
  mirroring "the update function must set up the set of variables it needs
  in the slate and initialize those variables".

Timers: the paper's hot-topic app (Example 5) publishes a per-minute count
"after a minute (counting from when it sees the first event with key v_m)".
That requires a time trigger, which the paper leaves implicit in Muppet's
runtime. We make it explicit: an updater may call ``ctx.set_timer(at_ts)``;
the engine later invokes ``on_timer`` with the same key and slate at
timestamp ``at_ts``, interleaved into the global event order. Timer
callbacks may publish events (with timestamps greater than ``at_ts``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.event import Event, Key, Timestamp
from repro.core.slate import Slate
from repro.errors import TimestampError, WorkflowError

#: Smallest timestamp advance applied when an operator does not pick an
#: explicit output timestamp. Small enough to be invisible at second
#: granularity, large enough to totally order loop iterations.
MIN_TS_INCREMENT = 1e-6

#: Prefix for the synthetic stream on which timer callbacks are ordered.
#: "!" sorts before every alphanumeric stream ID, so a timer at timestamp T
#: deterministically fires before ordinary events at T.
TIMER_SID_PREFIX = "!timer:"


@dataclass(frozen=True, slots=True)
class TimerRequest:
    """A pending request for a timer callback (see module docstring)."""

    updater: str
    key: Key
    at_ts: Timestamp
    payload: Any = None

    def fired(self) -> Event:
        """The synthetic event an engine delivers when this timer fires."""
        return Event(TIMER_SID_PREFIX + self.updater, self.at_ts, self.key)


class Context:
    """Per-invocation publication interface (the paper's "submitter").

    An engine creates one Context per operator invocation, passing the
    operator's declared output streams and the input event's timestamp. The
    operator calls :meth:`publish` zero or more times; the engine then
    collects :attr:`emitted` and routes the events.
    """

    __slots__ = ("operator", "input_ts", "input_key", "_output_sids",
                 "emitted", "timers", "now")

    def __init__(
        self,
        operator: str,
        input_ts: Timestamp,
        output_sids: Tuple[str, ...],
        input_key: Key = "",
    ) -> None:
        self.operator = operator
        self.input_ts = input_ts
        self.input_key = input_key
        #: Alias for the input event's timestamp — "current time" as the
        #: operator observes it.
        self.now = input_ts
        self._output_sids = output_sids
        self.emitted: List[Event] = []
        self.timers: List[TimerRequest] = []

    def publish(
        self,
        sid: str,
        key: Key,
        value: Any = None,
        ts: Optional[Timestamp] = None,
    ) -> Event:
        """Emit an event to stream ``sid``.

        Args:
            sid: Target stream; must be one of the operator's declared
                output streams.
            key: Event key.
            value: Event payload.
            ts: Optional explicit timestamp; must be > the input event's
                timestamp. Defaults to ``input_ts + MIN_TS_INCREMENT``.

        Returns:
            The emitted event (sequence number not yet stamped; the engine's
            stream registry stamps it on routing).
        """
        if sid not in self._output_sids:
            raise WorkflowError(
                f"operator {self.operator!r} is not declared to publish to "
                f"stream {sid!r} (declared outputs: {self._output_sids})"
            )
        if ts is None:
            ts = self.input_ts + MIN_TS_INCREMENT
        elif ts <= self.input_ts:
            raise TimestampError(
                f"operator {self.operator!r} emitted ts={ts} which does not "
                f"exceed input ts={self.input_ts}; Section 3 requires output "
                "timestamps to be strictly greater than the input's"
            )
        # Direct tuple construction: publish runs once per emitted event
        # on every engine's hot path, and the named constructor's Python
        # frame doubles the allocation cost.
        # inlines: repro.core.event:Event.__new__
        event = tuple.__new__(Event, (sid, ts, key, value, 0, None, 0))
        self.emitted.append(event)
        return event

    def set_timer(self, at_ts: Timestamp, payload: Any = None) -> None:
        """Request an ``on_timer`` callback at timestamp ``at_ts``.

        Only meaningful inside an updater invocation; the timer fires for
        the same (updater, key) pair. ``at_ts`` must be in the future of the
        current event.
        """
        if at_ts <= self.input_ts:
            raise TimestampError(
                f"timer at ts={at_ts} does not exceed current ts="
                f"{self.input_ts}"
            )
        self.timers.append(
            TimerRequest(self.operator, self.input_key, at_ts, payload)
        )


class Operator(abc.ABC):
    """Common base for map and update functions.

    Mirrors the paper's construction contract (Appendix A): implementations
    are constructed from "a configuration object for the application and a
    string for the name of the map or update function being instantiated",
    because the same class may be reused under several names in one
    workflow.
    """

    def __init__(self, config: Optional[Dict[str, Any]] = None,
                 name: str = "") -> None:
        self.config: Dict[str, Any] = dict(config or {})
        self.name = name or type(self).__name__

    def get_name(self) -> str:
        """The unique function name this instance runs under."""
        return self.name

    #: Relative CPU cost of one invocation, used by the cluster simulator's
    #: service-time model (1.0 = the simulator's base per-event cost).
    #: Applications with expensive per-event work (NLP, classification)
    #: override this so simulated machines saturate realistically.
    cost_factor: float = 1.0


class Mapper(Operator):
    """A memoryless map function: ``map(event) -> event*`` (Section 3)."""

    @abc.abstractmethod
    def map(self, ctx: Context, event: Event) -> None:
        """Process one event; publish any outputs via ``ctx.publish``."""


class Updater(Operator):
    """A stateful update function: ``update(event, slate) -> event*``.

    Subclasses implement :meth:`update` and usually :meth:`init_slate`.
    Slate TTL is configured per update function (Section 4.2) via the
    ``slate_ttl`` attribute or constructor config key of the same name.

    **Thinnability** (the overload-control extension, see
    :mod:`repro.shedding`): an updater whose state is an associative
    accumulator may set ``thinnable = True`` (or pass
    ``{"thinnable": True}`` config) and implement
    :meth:`update_weighted`. Under overload the engine then skips a
    fraction of its update applications and applies the kept ones with
    inverse-probability weight ``1/p_keep``, keeping the expected
    slate values equal to the exact ones. Non-thinnable updaters are
    never thinned.
    """

    #: Per-updater slate time-to-live in seconds (None = forever, default).
    slate_ttl: Optional[float] = None
    #: Declares that this updater's state tolerates probabilistic
    #: thinning with IPW reconstruction (see module docstring).
    thinnable: bool = False

    def __init__(self, config: Optional[Dict[str, Any]] = None,
                 name: str = "") -> None:
        super().__init__(config, name)
        if "slate_ttl" in self.config:
            self.slate_ttl = self.config["slate_ttl"]
        if "thinnable" in self.config:
            self.thinnable = bool(self.config["thinnable"])

    def init_slate(self, key: Key) -> Dict[str, Any]:
        """Initial field values for a fresh slate for ``key``.

        Called the first time this updater touches key ``k`` — or again
        after the slate's TTL expired and the store garbage-collected it
        ("resetting to an empty slate at that time", Section 4.2).
        """
        return {}

    @abc.abstractmethod
    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        """Fold one event into the slate; optionally publish events."""

    def update_weighted(self, ctx: Context, event: Event, slate: Slate,
                        weight: float) -> None:
        """Fold one event with an inverse-probability weight.

        Called instead of :meth:`update` when the overload controller
        thins this updater: a kept event with keep-probability ``p``
        arrives with ``weight = 1/p`` so additive state stays unbiased.
        Weight 1.0 delegates to :meth:`update`; a thinnable updater
        must override this for weights above 1.0.
        """
        if weight == 1.0:
            self.update(ctx, event, slate)
            return
        raise WorkflowError(
            f"updater {self.name!r} declares thinnable={self.thinnable} "
            "but does not implement update_weighted(); thinning needs "
            "the weighted fold to keep its estimates unbiased")

    def on_timer(self, ctx: Context, key: Key, slate: Slate,
                 payload: Any = None) -> None:
        """Timer callback (see module docstring). Default: no-op."""
