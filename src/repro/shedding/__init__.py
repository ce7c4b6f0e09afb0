"""Overload control: adaptive backpressure + probabilistic thinning.

The paper's queue-overflow story (Sections 4.3, 5) is blunt: drop (and
log), divert to a degraded overflow stream, or throttle the sources.
All three either lose data outright or stall ingestion. This package
adds a fourth, *graceful* degradation mode for associative counter-like
state: probabilistically thin update application and keep the counters
unbiased via inverse-probability weighting (Horvitz-Thompson
estimation) — a kept event with keep-probability ``p`` applies with
weight ``1/p``, so the expected counter value equals the exact count.

Four pieces:

* :mod:`repro.shedding.thinning` — the thinnability contract and the
  seeded per-key-class thinning decision engine;
* :mod:`repro.shedding.controller` — the adaptive backpressure
  controller that walks each machine through pressure tiers
  (normal → thin → overflow-stream → source-throttle) with hysteresis;
* :mod:`repro.shedding.overload` — what carries those decisions out
  on the simulated engine (monitor ticks, the thinning and proactive-
  divert calls, the ``overload`` metrics family);
* :mod:`repro.shedding.measure` — ground-truth error measurement
  against the reference executor (max/mean relative counter error and
  per-policy data-loss accounting).

Everything here is deterministic given the configured seed: all
probabilistic decisions draw from one seeded RNG consumed in
discrete-event order, so an overloaded run replays exactly.
"""

from repro.shedding.controller import (TIER_NAMES, TIER_NORMAL,
                                       TIER_OVERFLOW, TIER_THIN,
                                       TIER_THROTTLE, BackpressureController,
                                       PressureSignals, SheddingConfig,
                                       SheddingCounters)
from repro.shedding.measure import CounterErrorReport, measure_counter_error
from repro.shedding.thinning import ThinnableCounter, Thinner, ThinningPolicy

__all__ = [
    "BackpressureController",
    "CounterErrorReport",
    "PressureSignals",
    "SheddingConfig",
    "SheddingCounters",
    "ThinnableCounter",
    "Thinner",
    "ThinningPolicy",
    "TIER_NAMES",
    "TIER_NORMAL",
    "TIER_OVERFLOW",
    "TIER_THIN",
    "TIER_THROTTLE",
    "measure_counter_error",
]
