"""Seed-swept property test: IPW counters are unbiased.

Each thinned-out update is compensated by weighting the kept siblings
by ``1/keep_rate``, so the reconstructed counter is an unbiased
estimator of the exact count. Ground truth comes from the Section 3
reference executor over the same event list; the sweep runs the
thinning decision engine across 60 independent seeds at a fixed keep
rate and checks that the *seed-averaged* estimate converges on the
truth (Bernoulli mode), while the stratified mode meets its stronger
deterministic per-seed bound of one pre-weight event per key.
"""

from __future__ import annotations

from typing import Dict

from repro.core import Application, ReferenceExecutor
from repro.shedding.thinning import (DEFAULT_CLASS, ThinnableCounter,
                                     Thinner, ThinningPolicy)
from tests.conftest import make_events

KEEP_RATE = 0.2
SEEDS = range(60)
KEYS = 6
EVENTS = make_events(1500, keys=KEYS)  # 250 arrivals per key


def exact_counts() -> Dict[str, float]:
    app = Application("unbiased")
    app.add_stream("S1", external=True)
    app.add_updater("U1", ThinnableCounter, subscribes=["S1"])
    app.validate()
    result = ReferenceExecutor(app).run(list(EVENTS))
    return result.numeric_slates("U1", "count")


def ipw_estimate(seed: int, mode: str) -> Dict[str, float]:
    """One seeded thinning pass: the IPW-reconstructed counter."""
    thinner = Thinner(ThinningPolicy(keep_rates={DEFAULT_CLASS: KEEP_RATE},
                                     mode=mode),
                      seed=seed)
    estimate = {f"k{i}": 0.0 for i in range(KEYS)}
    for event in EVENTS:
        keep, weight = thinner.decide(event.key)
        if keep:
            estimate[event.key] += weight
    return estimate


def test_bernoulli_ipw_is_unbiased_across_seeds():
    """Mean relative error -> 0 as independent seeds are averaged.

    Per-seed relative error has std ``sqrt((1-p)/(p*n))`` ~ 12.6% at
    p=0.2, n=250; the 60-seed average has std ~ 1.6%, so a 5% bound is
    a 3-sigma test on the *signed* error — a biased estimator (e.g.
    weighting by anything other than 1/p) fails it immediately.
    """
    truth = exact_counts()
    signed = {key: 0.0 for key in truth}
    abs_per_seed = 0.0
    for seed in SEEDS:
        estimate = ipw_estimate(seed, "bernoulli")
        for key, exact in truth.items():
            rel = (estimate[key] - exact) / exact
            signed[key] += rel
            abs_per_seed += abs(rel)
    n_seeds = len(list(SEEDS))
    abs_per_seed /= n_seeds * len(truth)
    mean_signed = {key: total / n_seeds for key, total in signed.items()}
    for key, bias in mean_signed.items():
        assert abs(bias) < 0.05, (key, bias)
    # The averaging is doing real work: per-seed scatter is much larger
    # than the residual bias of the seed-averaged estimate.
    mean_abs_bias = sum(abs(b) for b in mean_signed.values()) / len(truth)
    assert abs_per_seed > 0.03        # individual seeds do deviate
    assert mean_abs_bias < abs_per_seed / 3


def test_stratified_meets_deterministic_bound_every_seed():
    """Stratified mode is stronger than unbiased-in-expectation: every
    seed's estimate is within one pre-weight event (1/p post-weight) of
    the truth for every key — the bound the E22 <1% claim rests on."""
    truth = exact_counts()
    bound = 1.0 / KEEP_RATE
    for seed in SEEDS:
        estimate = ipw_estimate(seed, "stratified")
        for key, exact in truth.items():
            assert abs(estimate[key] - exact) < bound, (seed, key)


def test_stratified_is_also_unbiased_over_seeds():
    """The random initial phase makes the stratified estimator unbiased
    over seeds too (phase uniform in [0,1) -> rounding error mean 0)."""
    truth = exact_counts()
    for key, exact in truth.items():
        mean = sum(ipw_estimate(seed, "stratified")[key]
                   for seed in SEEDS) / len(list(SEEDS))
        assert abs(mean - exact) / exact < 0.01, (key, mean)
