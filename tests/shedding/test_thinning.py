"""Thinning policies and the seeded keep/skip decision engine."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.shedding.thinning import (DEFAULT_CLASS, ThinnableCounter,
                                     Thinner, ThinningPolicy)


def uniform(keep_rate):
    """One keep rate for every key."""
    return ThinningPolicy(keep_rates={DEFAULT_CLASS: keep_rate})


class TestThinningPolicy:
    def test_defaults(self):
        policy = ThinningPolicy()
        assert policy.keep_rate("anything") == 0.1
        assert policy.mode == "stratified"

    def test_classifier_routes_rates(self):
        policy = ThinningPolicy(
            keep_rates={"hot": 0.1, DEFAULT_CLASS: 1.0},
            classifier=lambda key: "hot" if key == "k0" else "cold")
        assert policy.keep_rate("k0") == 0.1
        # Unknown class falls back to the default class's rate.
        assert policy.keep_rate("k9") == 1.0

    def test_unknown_class_without_default_keeps_everything(self):
        policy = ThinningPolicy(keep_rates={"hot": 0.1},
                                classifier=lambda key: "cold")
        assert policy.keep_rate("k") == 1.0

    def test_rejects_empty_rates(self):
        with pytest.raises(ConfigurationError):
            ThinningPolicy(keep_rates={})

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5])
    def test_rejects_out_of_range_rates(self, bad):
        with pytest.raises(ConfigurationError):
            ThinningPolicy(keep_rates={DEFAULT_CLASS: bad})

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            ThinningPolicy(mode="systematic-ish")

    def test_rate_one_is_allowed(self):
        assert uniform(1.0).keep_rate("k") == 1.0


class TestThinner:
    def test_rate_one_keeps_all_without_consuming_rng(self):
        thinner = Thinner(uniform(1.0), seed=3)
        state = thinner._rng.getstate()
        for _ in range(100):
            assert thinner.decide("k") == (True, 1.0)
        assert thinner._rng.getstate() == state
        assert thinner.decisions == 0

    def test_weight_is_inverse_keep_rate(self):
        thinner = Thinner(uniform(0.25), seed=1)
        weights = {thinner.decide("k")[1] for _ in range(200)}
        assert weights <= {0.0, 4.0}
        assert 4.0 in weights

    def test_same_seed_replays_exactly(self):
        decisions = [Thinner(uniform(0.3), seed=42).decide(
            f"k{i % 7}") for i in range(500)]
        replayed = [Thinner(uniform(0.3), seed=42).decide(
            f"k{i % 7}") for i in range(500)]
        assert decisions == replayed

    def test_counters_account_every_decision(self):
        thinner = Thinner(uniform(0.5), seed=0)
        for i in range(300):
            thinner.decide(f"k{i % 3}")
        assert thinner.decisions == 300
        assert thinner.kept + thinner.skipped == 300
        assert thinner.kept > 0 and thinner.skipped > 0

    def test_stratified_error_bounded_by_one_pre_weight_event(self):
        """|kept/p - n| < 1/p for every key, any n — the bounded-error
        contract the E22 bench's <1% claim rests on."""
        rate = 0.13
        for seed in range(20):
            thinner = Thinner(uniform(rate), seed=seed)
            for n in (7, 100, 997):
                kept = sum(1 for _ in range(n)
                           if thinner.decide(f"key{n}")[0])
                assert abs(kept / rate - n) < 1.0 / rate

    def test_stratified_phase_is_per_key(self):
        """Keys sample independently: interleaving keys does not change
        each key's own kept count."""
        rate = 0.2
        solo = Thinner(uniform(rate), seed=9)
        kept_solo = sum(1 for _ in range(250) if solo.decide("a")[0])
        mixed = Thinner(uniform(rate), seed=9)
        kept_mixed = 0
        for i in range(500):
            key = "a" if i % 2 == 0 else "b"
            keep, _ = mixed.decide(key)
            if key == "a" and keep:
                kept_mixed += 1
        # Phases differ (different RNG draw order) but the bound holds
        # for both, so the counts agree within one stride.
        assert abs(kept_solo - kept_mixed) <= 1

    def test_bernoulli_mode_draws_per_event(self):
        thinner = Thinner(ThinningPolicy(keep_rates={DEFAULT_CLASS: 0.5},
                                         mode="bernoulli"), seed=7)
        kept = sum(1 for _ in range(1000) if thinner.decide("k")[0])
        # A fair-ish coin: loose bounds, deterministic under the seed.
        assert 400 < kept < 600


class TestThinnableCounter:
    def _updater(self):
        return ThinnableCounter({}, "U1")

    def test_declares_thinnable(self):
        assert ThinnableCounter.thinnable is True

    def test_plain_update_counts_by_one(self):
        updater = self._updater()
        slate = updater.init_slate("k")
        updater.update(None, None, slate)
        updater.update(None, None, slate)
        assert slate["count"] == 2.0

    def test_weighted_update_adds_weight(self):
        updater = self._updater()
        slate = updater.init_slate("k")
        updater.update_weighted(None, None, slate, 10.0)
        updater.update_weighted(None, None, slate, 2.5)
        assert slate["count"] == 12.5

    def test_config_can_override_thinnable_off(self):
        from tests.conftest import CountingUpdater

        from repro.core import Application

        app = Application("t")
        app.add_stream("S1", external=True)
        app.add_updater("U1", ThinnableCounter, subscribes=["S1"],
                        config={"thinnable": False})
        app.add_updater("U2", CountingUpdater, subscribes=["S1"],
                        config={"thinnable": True})
        app.add_updater("U3", ThinnableCounter, subscribes=["S1"])
        specs = {s.name for s in app.thinnable_updaters()}
        assert specs == {"U2", "U3"}

    def test_default_updater_rejects_weighted(self):
        from tests.conftest import CountingUpdater

        from repro.errors import WorkflowError

        updater = CountingUpdater({}, "U1")
        slate = updater.init_slate("k")
        # weight 1.0 silently degrades to the plain update...
        updater.update_weighted(None, None, slate, 1.0)
        assert slate["count"] == 1
        # ...but a real weight on a non-thinnable updater is a bug.
        with pytest.raises(WorkflowError):
            updater.update_weighted(None, None, slate, 2.0)
