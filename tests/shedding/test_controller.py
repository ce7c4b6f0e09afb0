"""BackpressureController: tiers, hysteresis, the latency signal."""

from __future__ import annotations

import pytest

from repro.shedding import controller as controller_module
from repro.shedding.controller import (DIVERT_FRACTION, HOLD_S,
                                       OVERFLOW_ENTER, OVERFLOW_EXIT,
                                       P99_BUDGET_S, THIN_ENTER, THIN_EXIT,
                                       THROTTLE_ENTER, THROTTLE_EXIT,
                                       TIER_NAMES, TIER_NORMAL,
                                       TIER_OVERFLOW, TIER_THIN,
                                       TIER_THROTTLE,
                                       BackpressureController,
                                       PressureSignals, SheddingConfig)


@pytest.fixture(autouse=True)
def unsmoothed(monkeypatch):
    """Alpha 1: the EWMA tracks the raw signal exactly, so tier
    decisions in these tests are a pure function of the inputs."""
    monkeypatch.setattr(controller_module, "QUEUE_EWMA_ALPHA", 1.0)


def sig(queue_fraction, **kwargs):
    return PressureSignals(queue_fraction=queue_fraction, **kwargs)


class TestSheddingConfigValidation:
    def test_defaults_are_valid(self):
        SheddingConfig()

    def test_each_band_and_the_tiers_ascend(self):
        """Every exit sits below its enter (the hysteresis band), and the
        enter thresholds ascend thin < overflow < throttle."""
        for enter, exit_ in ((THIN_ENTER, THIN_EXIT),
                             (OVERFLOW_ENTER, OVERFLOW_EXIT),
                             (THROTTLE_ENTER, THROTTLE_EXIT)):
            assert 0.0 < exit_ < enter <= 1.0
        assert THIN_ENTER < OVERFLOW_ENTER < THROTTLE_ENTER
        assert 0.0 < DIVERT_FRACTION <= 1.0


class TestTierTransitions:
    def test_unobserved_machine_is_normal(self):
        controller = BackpressureController(SheddingConfig())
        assert controller.tier_of("m000") == TIER_NORMAL
        assert controller.smoothed("m000") == 0.0

    def test_escalation_is_immediate_and_can_jump_tiers(self):
        controller = BackpressureController(SheddingConfig())
        tier = controller.observe("m000", sig(0.95), now=0.0)
        assert tier == TIER_THROTTLE
        # One transition, not three: the machine jumped straight there.
        assert controller.counters.escalations == 1

    def test_tier_thresholds_map_to_tiers(self):
        cases = [(THIN_ENTER - 0.01, TIER_NORMAL),
                 (THIN_ENTER, TIER_THIN),
                 (OVERFLOW_ENTER, TIER_OVERFLOW),
                 (THROTTLE_ENTER, TIER_THROTTLE)]
        for i, (fraction, expected) in enumerate(cases):
            controller = BackpressureController(SheddingConfig())
            assert controller.observe(f"m{i}", sig(fraction), 0.0) \
                == expected

    def test_deescalation_needs_hold_time(self):
        assert HOLD_S == 0.25
        controller = BackpressureController(SheddingConfig())
        controller.observe("m000", sig(OVERFLOW_ENTER), now=0.0)
        # Signal cleared, but the dwell has not elapsed yet.
        assert controller.observe("m000", sig(0.0), 0.1) == TIER_OVERFLOW
        assert controller.observe("m000", sig(0.0), 0.2) == TIER_OVERFLOW
        # Dwell elapsed: steps down one tier at a time, not to normal.
        assert controller.observe("m000", sig(0.0), 0.30) == TIER_THIN
        assert controller.observe("m000", sig(0.0), 0.40) == TIER_THIN
        assert controller.observe("m000", sig(0.0), 0.60) == TIER_NORMAL
        assert controller.counters.deescalations == 2

    def test_hysteresis_band_holds_the_tier(self):
        """A signal between exit and enter neither escalates nor
        de-escalates — the anti-flap contract."""
        controller = BackpressureController(SheddingConfig())
        controller.observe("m000", sig(THIN_ENTER), now=0.0)
        between = (THIN_EXIT + THIN_ENTER) / 2
        for i in range(1, 20):
            # Long dwell each step: only the exit threshold holds it.
            assert controller.observe("m000", sig(between),
                                      now=i * 10.0) == TIER_THIN
        assert controller.counters.escalations == 1
        assert controller.counters.deescalations == 0

    def test_machines_are_independent(self):
        controller = BackpressureController(SheddingConfig())
        controller.observe("m000", sig(0.95), 0.0)
        controller.observe("m001", sig(0.0), 0.0)
        assert controller.tier_of("m000") == TIER_THROTTLE
        assert controller.tier_of("m001") == TIER_NORMAL

    def test_ewma_smooths_a_spike(self, monkeypatch):
        """After a calm baseline (the EWMA seeds on its first
        observation), one spike does not clear the enter threshold, but
        sustained pressure does."""
        monkeypatch.undo()  # the shipped smoothing (alpha 0.4)
        controller = BackpressureController(SheddingConfig())
        assert controller.observe("m000", sig(0.0), 0.0) == TIER_NORMAL
        # One spike: smoothed only reaches alpha * 0.8 = 0.32 < enter.
        assert controller.observe("m000", sig(0.8), 0.02) == TIER_NORMAL
        # Sustained moderate pressure converges the EWMA onto 0.5.
        for i in range(2, 12):
            controller.observe("m000", sig(0.5), i * 0.02)
        assert controller.tier_of("m000") == TIER_THIN


class TestSecondarySignals:
    def test_p99_over_budget_forces_thin(self):
        controller = BackpressureController(SheddingConfig())
        tier = controller.observe("m000", sig(0.0, p99_s=P99_BUDGET_S + 1),
                                  0.0)
        assert tier == TIER_THIN

    def test_p99_within_budget_forces_nothing(self):
        controller = BackpressureController(SheddingConfig())
        assert controller.observe("m000", sig(0.0, p99_s=P99_BUDGET_S),
                                  0.0) == TIER_NORMAL

    def test_secondary_signals_never_exceed_thin(self):
        controller = BackpressureController(SheddingConfig())
        tier = controller.observe("m000", sig(0.0, p99_s=50.0), 0.0)
        assert tier == TIER_THIN


class TestCounters:
    def test_residence_times_partition_the_run(self):
        controller = BackpressureController(SheddingConfig())
        controller.observe("m000", sig(0.5), now=0.0)   # thin at t=0
        controller.observe("m000", sig(0.95), now=2.0)  # throttle at t=2
        controller.observe("m001", sig(0.0), now=0.0)   # normal all run
        controller.finish(now=5.0)
        counters = controller.counters
        assert counters.time_thin_s == pytest.approx(2.0)
        assert counters.time_throttle_s == pytest.approx(3.0)
        assert counters.time_normal_s == pytest.approx(5.0)
        total = sum(getattr(counters, f"time_{name}_s")
                    for name in TIER_NAMES)
        assert total == pytest.approx(2 * 5.0)  # machines x elapsed

    def test_finish_is_idempotent(self):
        controller = BackpressureController(SheddingConfig())
        controller.observe("m000", sig(0.0), 0.0)
        controller.finish(5.0)
        controller.finish(5.0)
        assert controller.counters.time_normal_s == pytest.approx(5.0)

    def test_as_dict_is_insertion_ordered_and_complete(self):
        counters = BackpressureController(SheddingConfig()).counters
        keys = list(counters.as_dict())
        assert keys == ["thinned", "kept_weighted", "weight_applied",
                        "diverted_proactive", "escalations",
                        "deescalations", "time_normal_s", "time_thin_s",
                        "time_overflow_s", "time_throttle_s"]
