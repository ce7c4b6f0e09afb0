"""The fault injector — a schedule realized against simulated time.

The injector owns the schedule's RNG and answers the two questions the
runtime asks on its hot paths:

* :meth:`FaultInjector.message_fate` — given a ``src -> dst`` message and
  its base network delay, is it delivered, and with how much total delay?
  This folds together partitions (dropped + counted), probabilistic drop
  rules, delay rules with seeded jitter, and slow-node network inflation.
* :meth:`FaultInjector.cpu_factor` — the service-time inflation for a
  machine under an active gray failure.

Determinism: every probabilistic decision draws from one
``random.Random(schedule.seed)`` in simulator event order, which the
discrete-event scheduler already makes reproducible — so two runs of one
seeded schedule over one workload produce byte-identical counters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.faults.schedule import FaultSchedule
from repro.obs.registry import CounterFields


@dataclass(slots=True)
class FaultInjectorStats(CounterFields):
    """What the injector actually did to the run."""

    dropped_messages: int = 0
    delayed_messages: int = 0
    injected_delay_s: float = 0.0
    lost_partition: int = 0
    gray_slow_s: float = 0.0


class FaultInjector:
    """Evaluates a :class:`FaultSchedule`'s interval rules at query time.

    Point events (crash/recover/kv_outage) are *not* handled here — the
    runtime schedules those as discrete state changes. The injector only
    answers per-message and per-execution queries for the interval rules,
    so an empty rule set costs nothing on the hot path (the runtime skips
    the injector entirely).
    """

    def __init__(self, schedule: FaultSchedule) -> None:
        self.schedule = schedule
        self.rng = random.Random(schedule.seed)
        self.stats = FaultInjectorStats()
        self._rules = schedule.interval_events()
        self._partitions = [r for r in self._rules if r.kind == "partition"]
        self._slows = [r for r in self._rules if r.kind == "slow"]
        self._drops = [r for r in self._rules if r.kind == "drop"]
        self._delays = [r for r in self._rules if r.kind == "delay"]

    def has_rules(self) -> bool:
        """Whether any interval rule exists (hot-path gate)."""
        return bool(self._rules)

    # -- per-message -------------------------------------------------------
    def message_fate(self, src: Optional[str], dst: str, now: float,
                     base_delay_s: float) -> Tuple[bool, float]:
        """Decide one message's fate: ``(delivered, total_delay_s)``.

        Args:
            src: Sending machine, or ``None`` for source-injection (M0)
                and control traffic, which counts as outside every
                partition group.
            dst: Destination machine.
            now: Current simulated time.
            base_delay_s: The undisturbed network delay.
        """
        for rule in self._partitions:
            if rule.active(now) and self._crosses(rule.group, src, dst):
                self.stats.lost_partition += 1
                return False, base_delay_s
        for rule in self._drops:
            if rule.active(now) and rule.matches_message(src, dst):
                if self.rng.random() < rule.probability:
                    self.stats.dropped_messages += 1
                    return False, base_delay_s
        delay = base_delay_s
        for rule in self._delays:
            if rule.active(now) and rule.matches_message(src, dst):
                if rule.probability < 1.0 \
                        and self.rng.random() >= rule.probability:
                    continue
                extra = rule.extra_delay_s
                if rule.jitter_s > 0.0:
                    extra += self.rng.random() * rule.jitter_s
                delay += extra
                self.stats.delayed_messages += 1
                self.stats.injected_delay_s += extra
        for rule in self._slows:
            if rule.net_factor > 1.0 and rule.active(now) \
                    and rule.machine in (src, dst):
                extra = base_delay_s * (rule.net_factor - 1.0)
                delay += extra
                self.stats.gray_slow_s += extra
        return True, delay

    @staticmethod
    def _crosses(group, src: Optional[str], dst: str) -> bool:
        src_in = src is not None and src in group
        return src_in != (dst in group)

    # -- per-execution -----------------------------------------------------
    def cpu_factor(self, machine: str, now: float) -> float:
        """Combined CPU inflation for ``machine`` (1.0 when healthy)."""
        factor = 1.0
        for rule in self._slows:
            if rule.machine == machine and rule.active(now):
                factor *= rule.cpu_factor
        return factor

    def note_gray_cpu(self, extra_service_s: float) -> None:
        """Account service time attributable to gray-failure inflation."""
        self.stats.gray_slow_s += extra_service_s
