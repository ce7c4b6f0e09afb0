"""Overload response on the simulated engine.

The policy lives beside this module — :mod:`repro.shedding.controller`
decides each machine's pressure tier, :mod:`repro.shedding.thinning`
which updates to skip. :class:`OverloadControl` carries those decisions
out inside :class:`~repro.sim.runtime.SimRuntime`: the monitor tick, the
thinning and proactive-diversion calls the per-event path makes through
closure cells, and the ``overload`` metrics family. It is always built,
because every run counts what happened to events that met a full queue;
the controller and the thinner exist only with ``SimConfig.shedding``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Set

from repro.obs.latency import worst_recent_p99
from repro.shedding.controller import (CHECK_PERIOD_S, DIVERT_FRACTION,
                                       P99_WINDOW, TIER_THROTTLE,
                                       BackpressureController,
                                       PressureSignals, SheddingCounters)
from repro.shedding.thinning import Thinner

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.event import Event
    from repro.muppet.queues import SourceThrottle
    from repro.sim.des import Simulator
    from repro.sim.runtime import SimRuntime, _Envelope, _Machine

#: How often a paused source looks at its throttle again, and the throttle
#: monitor at the queues (simulated seconds).
THROTTLE_CHECK_S = 0.01

#: Overflow outcomes reported per machine under ``overload.queue.*``
#: (zero-filled so the key set is load-independent).
OVERFLOW_OUTCOMES = ("dropped", "diverted", "diverted_proactive",
                     "throttle_retries")


class OverloadControl:
    """Carries out overload decisions for one :class:`SimRuntime`."""

    def __init__(self, rt: "SimRuntime") -> None:
        self.rt = rt
        config = rt.config.shedding
        self.controller: Optional[BackpressureController] = None
        self.thinner: Optional[Thinner] = None
        self.thinnable: Set[str] = set()
        if config is not None:
            if config.overflow_sid is not None:
                # Validate eagerly: a typo'd overflow stream should fail
                # at construction, not mid-overload.
                rt.app.streams.spec(config.overflow_sid)
            self.controller = BackpressureController(config)
            self.thinner = Thinner(config.thinning, seed=config.seed)
            self.thinnable = {s.name for s in rt.app.thinnable_updaters()}
        #: Shedding accounting; an all-zero stand-in when shedding is
        #: off so the ``overload`` metrics family stays present (and
        #: deterministic) in every report.
        self.counters = (self.controller.counters
                         if self.controller is not None
                         else SheddingCounters())
        #: Per-machine overflow outcome counts:
        #: ``{machine: {outcome: count}}``.
        self._outcomes: Dict[str, Dict[str, int]] = {}

    # -- accounting ----------------------------------------------------------
    def note_overflow(self, machine_name: str, outcome: str) -> None:
        """Count one overflow outcome at a machine."""
        outcomes = self._outcomes.get(machine_name)
        if outcomes is None:
            outcomes = self._outcomes[machine_name] = {}
        outcomes[outcome] = outcomes.get(outcome, 0) + 1

    def stats(self) -> Dict[str, Any]:
        """The ``overload`` metrics family: shedding counters, source-
        throttle duty cycle, per-machine tier and overflow outcomes."""
        rt = self.rt
        stats: Dict[str, Any] = self.counters.as_dict()
        throttle = rt.config.throttle
        now = rt.sim.now()
        stats["throttle_pauses"] = (throttle.pause_count
                                    if throttle is not None else 0)
        stats["throttle_duty"] = (throttle.duty_cycle(now)
                                  if throttle is not None else 0.0)
        for name in sorted(rt.machines):
            outcomes = self._outcomes.get(name, {})
            for outcome in OVERFLOW_OUTCOMES:
                stats[f"queue.{name}.{outcome}"] = outcomes.get(outcome, 0)
            stats[f"tier.{name}"] = (self.controller.tier_of(name)
                                     if self.controller is not None else 0)
        return stats

    # -- the per-event path's two calls (shedding on) --------------------------
    def thin(self, machine: "_Machine", fn: str,
             event: "Event") -> Optional[float]:
        """Thinning decision for one update of a thinnable updater under
        pressure: the inverse-probability weight to apply it with, or
        None when it is thinned away."""
        thinner = self.thinner
        assert thinner is not None
        keep, weight = thinner.decide(event.key)
        if not keep:
            # Thinned: skip the slate read and the update entirely —
            # that saved work is the whole point. Kept siblings carry
            # weight 1/p, so the counter stays unbiased (see
            # repro.shedding.thinning).
            self.rt.counters.thinned += 1
            self.counters.thinned += 1
            trace = self.rt.tracer
            if trace is not None:
                origin, oseq = event.provenance()
                trace.emit(self.rt.sim.now(), "shed", machine=machine.name,
                           op=fn, key=event.key, outcome="thin",
                           origin=origin, oseq=oseq)
            return None
        if weight > 1.0:
            self.counters.kept_weighted += 1
            self.counters.weight_applied += weight
        return weight

    def divert_proactively(self, machine: "_Machine",
                           envelope: "_Envelope") -> bool:
        """Overflow tier: shed an arrival to the degraded stream *before*
        the queues fill, instead of waiting for hard queue-full
        rejections. True when the envelope was diverted."""
        assert self.controller is not None
        config = self.controller.config
        if (envelope.is_timer or envelope.diverted
                or config.overflow_sid is None
                or machine.queue_depth_fraction() < DIVERT_FRACTION):
            return False
        self.counters.diverted_proactive += 1
        self.note_overflow(machine.name, "diverted_proactive")
        self.rt._divert(machine, envelope, config.overflow_sid,
                        proactive=True)
        return True

    # -- monitors ------------------------------------------------------------
    def schedule_monitor(self) -> None:
        """Arm the one monitor this configuration needs. The
        backpressure controller owns the throttle (tier 3 pauses
        sources); the classic watermark monitor would fight it, so only
        one of the two runs."""
        throttle = self.rt.config.throttle
        if self.controller is not None:
            self._schedule_shedding(self.controller)
        elif throttle is not None:
            self._schedule_throttle(throttle)

    def _schedule_throttle(self, throttle: "SourceThrottle") -> None:
        rt = self.rt

        def tick(sim: "Simulator") -> None:
            worst = max((m.queue_depth_fraction()
                         for m in rt.machines.values() if m.alive),
                        default=0.0)
            throttle.observe(worst, sim.now())

        rt.sim.every(THROTTLE_CHECK_S, tick)

    def _schedule_shedding(self, shed: BackpressureController) -> None:
        """The backpressure controller's observation tick.

        Each period, every live machine's pressure signals feed the
        controller; the resulting tier lands on ``machine.pressure_tier``
        for the per-event hot paths to read. Any machine at the throttle
        tier pauses the sources (Section 5 source throttling — never
        mid-workflow, which can deadlock).
        """
        rt = self.rt

        def tick(sim: "Simulator") -> None:
            p99 = worst_recent_p99(rt.latency, P99_WINDOW)
            throttle_wanted = False
            for name in sorted(rt.machines):
                machine = rt.machines[name]
                if not machine.alive:
                    continue
                tier = shed.observe(
                    name,
                    PressureSignals(
                        queue_fraction=machine.queue_depth_fraction(),
                        p99_s=p99),
                    sim.now())
                machine.pressure_tier = tier
                if tier >= TIER_THROTTLE:
                    throttle_wanted = True
            throttle = rt.config.throttle
            if throttle is not None:
                if throttle_wanted:
                    throttle.pause(sim.now())
                else:
                    throttle.resume(sim.now())

        rt.sim.every(CHECK_PERIOD_S, tick)

    def finish(self, now: float) -> None:
        """Close the open tier-residence and pause intervals (end of
        run)."""
        if self.controller is not None:
            self.controller.finish(now)
        if self.rt.config.throttle is not None:
            self.rt.config.throttle.finish(now)
