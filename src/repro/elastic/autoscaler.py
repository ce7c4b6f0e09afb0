"""Autoscaler policy: planful cluster growth/shrink under load.

Muppet's hash ring reacts to *failures* (Section 4.3: route around a
dead machine, re-admit it behind a flush barrier), but the paper's
production deployments were resized by hand. ROADMAP item 3 asks for the
missing half: a policy that watches the health signal the overload
controller already smooths — the worst queue fraction — and *planfully*
adds or removes machines at runtime.

The policy mirrors :class:`repro.shedding.controller.BackpressureController`:
an EWMA-smoothed signal, immediate escalation (scale up the moment
pressure crosses the threshold), and deliberate de-escalation (scale
down only after the calm signal has held for ``HOLD_S`` and any
cooldown from the previous decision has expired). The asymmetry is the
point — adding capacity late costs latency, removing it early costs a
thrash of migrations.

The autoscaler only *decides*; the runtime executes decisions through
the live-migration protocol in :mod:`repro.elastic.migration` (or the
legacy flush-barrier join when migration is not configured).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.obs.registry import QUEUE_EWMA_ALPHA, CounterFields, Ewma

#: How often the runtime samples the signal.
CHECK_PERIOD_S = 0.25
#: Smoothed worst queue fraction at or above which the cluster grows.
SCALE_UP_QUEUE = 0.5
#: Smoothed worst queue fraction at or below which the cluster is a
#: shrink candidate; strictly below ``SCALE_UP_QUEUE``: the hysteresis
#: band is what prevents grow/shrink flapping.
SCALE_DOWN_QUEUE = 0.1
#: Minimum time between two scaling decisions.
COOLDOWN_S = 0.5
#: How long the calm signal must hold before a shrink.
HOLD_S = 1.0
#: Machines added per scale-up decision.
GROW_STEP = 2
#: Machines retired per scale-down decision.
SHRINK_STEP = 2


@dataclass(frozen=True)
class AutoscalerConfig:
    """The elastic scaling policy's one knob.

    The floor is the seed cluster: the autoscaler never shrinks below
    the machines a run started with, and the machines it adds have the
    cores of the smallest seed machine.

    Attributes:
        max_machines: Never grow above this many live machines.
    """

    max_machines: int = 16

    def __post_init__(self) -> None:
        if self.max_machines < 1:
            raise ConfigurationError(
                f"max_machines must be >= 1, got {self.max_machines!r}")


@dataclass(slots=True)
class AutoscalerCounters(CounterFields):
    """Decision accounting, registered under the ``elastic`` family."""

    observations: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    blocked_cooldown: int = 0
    blocked_bounds: int = 0
    blocked_migration: int = 0


@dataclass(frozen=True)
class ScaleDecision:
    """One autoscaler verdict: grow or shrink by ``count`` machines."""

    direction: str  # "grow" | "shrink"
    count: int


class Autoscaler:
    """EWMA-smoothed scale-up/scale-down state machine.

    Pure policy: :meth:`observe` folds one sample of the cluster health
    signal and returns a :class:`ScaleDecision` when action is due, or
    ``None``. The caller (the sim runtime's autoscaler tick) is
    responsible for victim selection and for actually executing the
    membership change.
    """

    def __init__(self, config: AutoscalerConfig, min_machines: int) -> None:
        if config.max_machines < min_machines:
            raise ConfigurationError(
                f"max_machines ({config.max_machines!r}) must be >= the "
                f"seed cluster's {min_machines!r} machines")
        self.config = config
        #: The seed cluster's size: never shrink below it.
        self.min_machines = min_machines
        self.counters = AutoscalerCounters()
        self._queue_ewma = Ewma("elastic.queue_ewma", QUEUE_EWMA_ALPHA)
        #: Start of the current uninterrupted calm stretch, or None.
        self._calm_since: Optional[float] = None
        self._cooldown_until = 0.0

    @property
    def smoothed_queue(self) -> float:
        """Current EWMA of the worst queue fraction (observability)."""
        return self._queue_ewma.value

    def observe(
        self,
        now: float,
        *,
        worst_queue_fraction: float,
        live_machines: int,
    ) -> Optional[ScaleDecision]:
        """Fold one sample; return a decision when one is due.

        Escalation is immediate (modulo cooldown and the max bound);
        de-escalation waits out ``HOLD_S`` of continuous calm first.
        A sample in the hysteresis band resets the calm clock.
        """
        max_machines = self.config.max_machines
        self.counters.observations += 1
        smoothed = self._queue_ewma.observe(worst_queue_fraction)

        if smoothed >= SCALE_UP_QUEUE:
            self._calm_since = None
            if now < self._cooldown_until:
                self.counters.blocked_cooldown += 1
                return None
            if live_machines >= max_machines:
                self.counters.blocked_bounds += 1
                return None
            self._cooldown_until = now + COOLDOWN_S
            self.counters.scale_ups += 1
            count = min(GROW_STEP, max_machines - live_machines)
            return ScaleDecision("grow", count)

        if smoothed > SCALE_DOWN_QUEUE:
            self._calm_since = None
            return None

        if self._calm_since is None:
            self._calm_since = now
            return None
        if now - self._calm_since < HOLD_S:
            return None
        if now < self._cooldown_until:
            self.counters.blocked_cooldown += 1
            return None
        if live_machines <= self.min_machines:
            self.counters.blocked_bounds += 1
            return None
        self._cooldown_until = now + COOLDOWN_S
        self._calm_since = None
        self.counters.scale_downs += 1
        count = min(SHRINK_STEP, live_machines - self.min_machines)
        return ScaleDecision("shrink", count)
