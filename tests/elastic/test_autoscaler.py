"""Autoscaler policy: EWMA signal, hysteresis, cooldown, bounds."""

import pytest

from repro.elastic import Autoscaler, AutoscalerConfig, ScaleDecision
from repro.elastic import autoscaler as autoscaler_module
from repro.errors import ConfigurationError


def observe(scaler, now, queue, live=4):
    return scaler.observe(now, worst_queue_fraction=queue,
                          live_machines=live)


class TestAutoscalerConfig:
    def test_defaults_valid(self):
        cfg = AutoscalerConfig()
        assert cfg.min_machines <= cfg.max_machines
        assert cfg.scale_down_queue < cfg.scale_up_queue

    @pytest.mark.parametrize("kwargs", [
        {"min_machines": 0},
        {"max_machines": 1, "min_machines": 2},
        {"check_period_s": 0.0},
        {"scale_up_queue": 0.0},
        {"scale_up_queue": 1.5},
        {"scale_down_queue": -0.1},
        # No hysteresis band: down threshold at/above up threshold.
        {"scale_down_queue": 0.6, "scale_up_queue": 0.6},
        {"cooldown_s": -1.0},
        {"hold_s": -1.0},
        {"grow_step": 0},
        {"shrink_step": 0},
        {"cores": 0},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(**kwargs)


class TestAutoscalerPolicy:
    @pytest.fixture(autouse=True)
    def unsmoothed(self, monkeypatch):
        """Alpha 1: the EWMA is the raw signal, so each decision is a
        pure function of the sample."""
        monkeypatch.setattr(autoscaler_module, "QUEUE_EWMA_ALPHA", 1.0)

    def cfg(self, **kwargs):
        kwargs.setdefault("cooldown_s", 1.0)
        kwargs.setdefault("hold_s", 1.0)
        return AutoscalerConfig(**kwargs)

    def test_grow_on_queue_pressure(self):
        scaler = Autoscaler(self.cfg())
        decision = observe(scaler, 0.0, queue=0.9)
        assert decision == ScaleDecision("grow", 1)
        assert scaler.counters.scale_ups == 1

    def test_grow_blocked_by_cooldown_then_allowed(self):
        scaler = Autoscaler(self.cfg())
        assert observe(scaler, 0.0, queue=0.9) is not None
        assert observe(scaler, 0.5, queue=0.9) is None
        assert scaler.counters.blocked_cooldown == 1
        assert observe(scaler, 1.5, queue=0.9) is not None

    def test_grow_blocked_at_max_machines(self):
        scaler = Autoscaler(self.cfg(max_machines=4))
        assert observe(scaler, 0.0, queue=0.9, live=4) is None
        assert scaler.counters.blocked_bounds == 1

    def test_grow_step_clipped_to_bound(self):
        scaler = Autoscaler(self.cfg(grow_step=4, max_machines=6))
        assert observe(scaler, 0.0, queue=0.9, live=4) \
            == ScaleDecision("grow", 2)

    def test_shrink_requires_hold(self):
        scaler = Autoscaler(self.cfg(hold_s=1.0, cooldown_s=0.0))
        assert observe(scaler, 0.0, queue=0.0) is None   # calm starts
        assert observe(scaler, 0.5, queue=0.0) is None   # still holding
        assert observe(scaler, 1.5, queue=0.0) \
            == ScaleDecision("shrink", 1)
        assert scaler.counters.scale_downs == 1

    def test_band_sample_resets_calm_clock(self):
        scaler = Autoscaler(self.cfg(hold_s=1.0, cooldown_s=0.0))
        observe(scaler, 0.0, queue=0.0)
        observe(scaler, 0.5, queue=0.3)   # hysteresis band: not calm
        assert observe(scaler, 1.5, queue=0.0) is None  # clock restarted
        assert observe(scaler, 3.0, queue=0.0) \
            == ScaleDecision("shrink", 1)

    def test_shrink_blocked_at_min_machines(self):
        scaler = Autoscaler(self.cfg(min_machines=2, hold_s=0.0,
                                     cooldown_s=0.0))
        observe(scaler, 0.0, queue=0.0, live=2)
        assert observe(scaler, 1.0, queue=0.0, live=2) is None
        assert scaler.counters.blocked_bounds == 1

    def test_ewma_smooths_a_spike(self, monkeypatch):
        monkeypatch.undo()  # the shipped smoothing, not the fixture's
        scaler = Autoscaler(AutoscalerConfig())
        # One spiky sample after a calm history does not trip the
        # threshold; sustained pressure does.
        observe(scaler, 0.0, queue=0.0)
        assert observe(scaler, 0.25, queue=0.9) is None
        for i in range(2, 12):
            decision = observe(scaler, 0.25 * i, queue=0.9)
            if decision is not None:
                assert decision.direction == "grow"
                break
        else:
            pytest.fail("sustained pressure never tripped the EWMA")

    def test_observation_counter(self):
        scaler = Autoscaler(self.cfg())
        for i in range(5):
            observe(scaler, float(i), queue=0.0)
        assert scaler.counters.observations == 5


def test_autoscaler_without_migration_admits_what_it_builds():
    """With ``SimConfig.migration`` unset the autoscaler grows through
    the flush-barrier join. The machines it builds must enter the ring
    (they used to be built and then left outside it forever)."""
    from repro.campaign.scenarios import build_e24_diurnal_app
    from repro.cluster import ClusterSpec
    from repro.sim import SimConfig, SimRuntime
    from repro.sim.sources import spiky_rate

    config = SimConfig(
        queue_capacity=2_000,
        autoscale=AutoscalerConfig(
            min_machines=2, max_machines=4, check_period_s=0.25,
            scale_up_queue=0.5, cooldown_s=0.5, cores=1))
    source = spiky_rate("S1", [(250.0, 0.5), (1400.0, 2.0)],
                        key_fn=lambda i: f"k{i % 64}")
    runtime = SimRuntime(build_e24_diurnal_app(),
                         ClusterSpec.uniform(2, cores=1), config, [source])
    report = runtime.run(6.0)
    elastic = report.metrics["elastic"]
    assert elastic["autoscaler.scale_ups"] >= 1
    assert elastic["machines_live"] == 2 + elastic["autoscaler.scale_ups"]
    assert set(runtime.machines) == runtime._machine_ring.live_members
