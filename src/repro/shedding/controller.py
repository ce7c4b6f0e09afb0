"""Adaptive backpressure: per-machine pressure tiers with hysteresis.

The controller reads the same signals the observability layer already
exposes — worst worker-queue depth fraction and the recent updater p99
— smooths the queue signal with an EWMA, and walks each machine through
four pressure tiers:

====  ==========  ==================================================
tier  name        engine behaviour
====  ==========  ==================================================
0     normal      nothing shed; the configured overflow policy only
1     thin        thinnable updaters probabilistically thin (IPW)
2     overflow    + arrivals above ``DIVERT_FRACTION`` divert to the
                  degraded overflow stream (provenance preserved)
3     throttle    + sources pause (Section 5 source throttling)
====  ==========  ==================================================

Escalation is immediate (overload is urgent: a machine may jump
several tiers in one observation); de-escalation steps down one tier
at a time and only after ``HOLD_S`` seconds in the current tier with
the smoothed signal below the tier's exit threshold — the hysteresis
that keeps the controller from flapping around a threshold. Per-tier
transition counts and residence times are accounted in
:class:`SheddingCounters` and surfaced as the ``overload.*`` metrics
family in ``SimReport.counter_report()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs.latency import PAPER_LATENCY_BOUND_S
from repro.obs.registry import QUEUE_EWMA_ALPHA, CounterFields, Ewma
from repro.shedding.thinning import ThinningPolicy

TIER_NORMAL = 0
TIER_THIN = 1
TIER_OVERFLOW = 2
TIER_THROTTLE = 3

#: Tier names in tier order (index == tier number).
TIER_NAMES = ("normal", "thin", "overflow", "throttle")

#: Controller sampling period (simulated seconds).
CHECK_PERIOD_S = 0.02
#: Minimum residence time in a tier before de-escalating.
HOLD_S = 0.25
#: Each tier's hysteresis band on the smoothed worst queue fraction:
#: escalate at or above *enter*, de-escalate at or below *exit* after
#: ``HOLD_S`` in tier. The thin tier's first response is cheap and
#: reversible, so it engages early.
THIN_ENTER = 0.35
THIN_EXIT = 0.15
#: Thinning alone absorbs E22's overloads; keep the lossy (divert) and
#: stalling (throttle) tiers as last resorts above the startup
#: transient's queue spike, so they engage only when thinning genuinely
#: cannot keep up (the 10x row) and never during the ramp-up at 2x/5x.
OVERFLOW_ENTER = 0.85
OVERFLOW_EXIT = 0.50
THROTTLE_ENTER = 0.95
THROTTLE_EXIT = 0.70
#: At tier >= overflow, arrivals while the instantaneous queue fraction
#: is at or above this divert instead of enqueueing.
DIVERT_FRACTION = 0.90
#: Escalate to at least ``thin`` while the recent updater p99 exceeds
#: the paper's latency bound.
P99_BUDGET_S = PAPER_LATENCY_BOUND_S
#: Trailing latency samples per updater used for the p99 signal.
P99_WINDOW = 256


@dataclass
class SheddingConfig:
    """The application wiring of the overload-control subsystem; the
    tier thresholds are the module constants above."""

    #: Per-key-class keep rates applied at tier >= thin.
    thinning: ThinningPolicy = field(default_factory=ThinningPolicy)
    #: Seed for the thinning RNG (replay-exactness contract).
    seed: int = 0
    #: Degraded overflow stream for tier-2 proactive diversion; None
    #: disables the overflow tier's divert action (the tier can still
    #: be entered, acting only as a stepping stone to throttle).
    overflow_sid: Optional[str] = None


@dataclass(frozen=True)
class PressureSignals:
    """One machine's load signals at one controller observation."""

    #: Worst worker-queue depth fraction on the machine (0..1).
    queue_fraction: float
    #: Recent cluster-wide worst updater p99 (seconds).
    p99_s: float = 0.0


@dataclass(slots=True)
class SheddingCounters(CounterFields):
    """Overload-control accounting for one run (all zero when off).

    Printed under ``overload.*`` in ``SimReport.counter_report()``
    alongside the throttle duty cycle and per-queue overflow outcome
    counts the runtime adds.
    """

    #: Update applications skipped by thinning.
    thinned: int = 0
    #: Update applications that applied with an IPW weight > 1.
    kept_weighted: int = 0
    #: Total IPW weight applied by those (audit: thinned + weight sum
    #: tracks the raw event count in expectation).
    weight_applied: float = 0.0
    #: Events proactively diverted by the overflow tier (distinct from
    #: queue-full diversion under the ``divert`` overflow policy).
    diverted_proactive: int = 0
    #: Tier transitions, split by direction.
    escalations: int = 0
    deescalations: int = 0
    #: Machine-seconds of residence per tier (closed by ``finish``).
    time_normal_s: float = 0.0
    time_thin_s: float = 0.0
    time_overflow_s: float = 0.0
    time_throttle_s: float = 0.0

    def add_residence(self, tier: int, seconds: float) -> None:
        """Charge ``seconds`` of machine time to one tier."""
        name = f"time_{TIER_NAMES[tier]}_s"
        setattr(self, name, getattr(self, name) + seconds)


class _MachinePressure:
    """Per-machine controller state: tier, dwell, smoothed signal."""

    __slots__ = ("tier", "entered_at", "ewma")

    def __init__(self, name: str) -> None:
        self.tier = TIER_NORMAL
        self.entered_at = 0.0
        self.ewma = Ewma(f"overload.{name}.queue_ewma", QUEUE_EWMA_ALPHA)


class BackpressureController:
    """Walks machines through pressure tiers from observed signals.

    One instance per runtime; the engine calls :meth:`observe` for each
    live machine on its monitor tick and acts on the returned tier.
    The controller is engine-agnostic (pure state machine over floats),
    which is what the unit tests exercise directly.
    """

    def __init__(self, config: SheddingConfig) -> None:
        self.config = config
        self.counters = SheddingCounters()
        self._machines: Dict[str, _MachinePressure] = {}

    def tier_of(self, machine: str) -> int:
        """The machine's current tier (normal if never observed)."""
        state = self._machines.get(machine)
        return state.tier if state is not None else TIER_NORMAL

    def observe(self, machine: str, signals: PressureSignals,
                now: float) -> int:
        """Fold one observation; returns the machine's (new) tier."""
        state = self._machines.get(machine)
        if state is None:
            state = self._machines[machine] = _MachinePressure(machine)
            state.entered_at = now
        state.ewma.observe(signals.queue_fraction)
        smoothed = state.ewma.value

        target = self._target_tier(smoothed, signals)
        tier = state.tier
        if target > tier:
            # Escalation is immediate — overload is urgent.
            self._transition(state, target, now)
        elif target < tier and now - state.entered_at >= HOLD_S \
                and smoothed <= self._exit_threshold(tier):
            # De-escalate one tier at a time, after the dwell, and only
            # once the smoothed signal cleared the tier's exit band.
            self._transition(state, tier - 1, now)
        return state.tier

    def finish(self, now: float) -> None:
        """Close every open tier-residence interval (end of run)."""
        for state in self._machines.values():  # noqa: MUP003 -- residence sums are order-independent
            self.counters.add_residence(state.tier,
                                        max(0.0, now - state.entered_at))
            state.entered_at = now

    # -- internals ---------------------------------------------------------
    def _target_tier(self, smoothed: float,
                     signals: PressureSignals) -> int:
        if smoothed >= THROTTLE_ENTER:
            return TIER_THROTTLE
        if smoothed >= OVERFLOW_ENTER:
            return TIER_OVERFLOW
        if smoothed >= THIN_ENTER:
            return TIER_THIN
        # The latency signal can force the first (cheap, reversible)
        # tier even while queues still look shallow: a slow updater
        # (p99 over budget) predicts queue growth before the queues
        # themselves show it.
        if signals.p99_s > P99_BUDGET_S:
            return TIER_THIN
        return TIER_NORMAL

    def _exit_threshold(self, tier: int) -> float:
        if tier >= TIER_THROTTLE:
            return THROTTLE_EXIT
        if tier == TIER_OVERFLOW:
            return OVERFLOW_EXIT
        return THIN_EXIT

    def _transition(self, state: _MachinePressure, tier: int,
                    now: float) -> None:
        self.counters.add_residence(state.tier,
                                    max(0.0, now - state.entered_at))
        if tier > state.tier:
            self.counters.escalations += 1
        else:
            self.counters.deescalations += 1
        state.tier = tier
        state.entered_at = now
