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
down only after the calm signal has held for ``hold_s`` and any
cooldown from the previous decision has expired). The asymmetry is the
point — adding capacity late costs latency, removing it early costs a
thrash of migrations.

The autoscaler only *decides*; the runtime executes decisions through
the live-migration protocol in :mod:`repro.elastic.migration` (or the
legacy flush-barrier join when migration is not configured).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.obs.registry import QUEUE_EWMA_ALPHA, Ewma


@dataclass(frozen=True)
class AutoscalerConfig:
    """Tuning knobs for the elastic scaling policy.

    Attributes:
        min_machines: Never shrink below this many live machines.
        max_machines: Never grow above this many live machines.
        check_period_s: How often the runtime samples the signal.
        scale_up_queue: Smoothed worst queue fraction at or above which
            the cluster grows.
        scale_down_queue: Smoothed worst queue fraction at or below
            which the cluster is a shrink candidate; must sit strictly
            below ``scale_up_queue`` (hysteresis band).
        cooldown_s: Minimum time between two scaling decisions.
        hold_s: How long the calm signal must hold before a shrink.
        grow_step: Machines added per scale-up decision.
        shrink_step: Machines retired per scale-down decision.
        cores: Worker cores for machines the autoscaler adds.
    """

    min_machines: int = 2
    max_machines: int = 16
    check_period_s: float = 0.25
    scale_up_queue: float = 0.60
    scale_down_queue: float = 0.15
    cooldown_s: float = 1.0
    hold_s: float = 1.0
    grow_step: int = 1
    shrink_step: int = 1
    cores: int = 4

    def __post_init__(self) -> None:
        if self.min_machines < 1:
            raise ConfigurationError(
                f"min_machines must be >= 1, got {self.min_machines!r}")
        if self.max_machines < self.min_machines:
            raise ConfigurationError(
                f"max_machines ({self.max_machines!r}) must be >= "
                f"min_machines ({self.min_machines!r})")
        if self.check_period_s <= 0:
            raise ConfigurationError(
                "check_period_s must be positive, got "
                f"{self.check_period_s!r}")
        if not 0.0 < self.scale_up_queue <= 1.0:
            raise ConfigurationError(
                "scale_up_queue must be in (0, 1], got "
                f"{self.scale_up_queue!r}")
        if not 0.0 <= self.scale_down_queue < self.scale_up_queue:
            raise ConfigurationError(
                f"scale_down_queue ({self.scale_down_queue!r}) must be "
                f">= 0 and strictly below scale_up_queue "
                f"({self.scale_up_queue!r}) — the hysteresis band is "
                "what prevents grow/shrink flapping")
        if self.cooldown_s < 0:
            raise ConfigurationError(
                f"cooldown_s must be >= 0, got {self.cooldown_s!r}")
        if self.hold_s < 0:
            raise ConfigurationError(
                f"hold_s must be >= 0, got {self.hold_s!r}")
        if self.grow_step < 1:
            raise ConfigurationError(
                f"grow_step must be >= 1, got {self.grow_step!r}")
        if self.shrink_step < 1:
            raise ConfigurationError(
                f"shrink_step must be >= 1, got {self.shrink_step!r}")
        if self.cores < 1:
            raise ConfigurationError(
                f"cores must be >= 1, got {self.cores!r}")


@dataclass(slots=True)
class AutoscalerCounters:
    """Decision accounting, registered under the ``elastic`` family."""

    observations: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    blocked_cooldown: int = 0
    blocked_bounds: int = 0
    blocked_migration: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Field snapshot for the metrics registry."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


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

    def __init__(self, config: AutoscalerConfig) -> None:
        self.config = config
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
        de-escalation waits out ``hold_s`` of continuous calm first.
        A sample in the hysteresis band resets the calm clock.
        """
        cfg = self.config
        self.counters.observations += 1
        smoothed = self._queue_ewma.observe(worst_queue_fraction)

        if smoothed >= cfg.scale_up_queue:
            self._calm_since = None
            if now < self._cooldown_until:
                self.counters.blocked_cooldown += 1
                return None
            if live_machines >= cfg.max_machines:
                self.counters.blocked_bounds += 1
                return None
            self._cooldown_until = now + cfg.cooldown_s
            self.counters.scale_ups += 1
            count = min(cfg.grow_step, cfg.max_machines - live_machines)
            return ScaleDecision("grow", count)

        if smoothed > cfg.scale_down_queue:
            self._calm_since = None
            return None

        if self._calm_since is None:
            self._calm_since = now
            return None
        if now - self._calm_since < cfg.hold_s:
            return None
        if now < self._cooldown_until:
            self.counters.blocked_cooldown += 1
            return None
        if live_machines <= cfg.min_machines:
            self.counters.blocked_bounds += 1
            return None
        self._cooldown_until = now + cfg.cooldown_s
        self._calm_since = None
        self.counters.scale_downs += 1
        count = min(cfg.shrink_step, live_machines - cfg.min_machines)
        return ScaleDecision("shrink", count)
