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
        assert AutoscalerConfig().max_machines >= 1

    def test_constants_keep_a_hysteresis_band(self):
        """The band between the thresholds is what prevents grow/shrink
        flapping."""
        assert 0.0 <= autoscaler_module.SCALE_DOWN_QUEUE \
            < autoscaler_module.SCALE_UP_QUEUE <= 1.0
        assert autoscaler_module.GROW_STEP >= 1
        assert autoscaler_module.SHRINK_STEP >= 1

    @pytest.mark.parametrize("kwargs", [
        {"max_machines": 0},
        {"max_machines": -1},
    ])
    def test_invalid_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(**kwargs)

    def test_max_below_the_seed_cluster_rejected(self):
        with pytest.raises(ConfigurationError, match="seed cluster"):
            Autoscaler(AutoscalerConfig(max_machines=1), min_machines=2)


class TestAutoscalerPolicy:
    @pytest.fixture(autouse=True)
    def unsmoothed(self, monkeypatch):
        """Alpha 1: the EWMA is the raw signal, so each decision is a
        pure function of the sample; steps of one machine and a second
        of cooldown and of hold keep the arithmetic plain."""
        monkeypatch.setattr(autoscaler_module, "QUEUE_EWMA_ALPHA", 1.0)
        for name, value in (("COOLDOWN_S", 1.0), ("HOLD_S", 1.0),
                            ("GROW_STEP", 1), ("SHRINK_STEP", 1)):
            monkeypatch.setattr(autoscaler_module, name, value)
        self.monkeypatch = monkeypatch

    def scaler(self, max_machines=16, min_machines=2, **constants):
        for name, value in constants.items():
            self.monkeypatch.setattr(autoscaler_module, name, value)
        return Autoscaler(AutoscalerConfig(max_machines=max_machines),
                          min_machines)

    def test_grow_on_queue_pressure(self):
        scaler = self.scaler()
        decision = observe(scaler, 0.0, queue=0.9)
        assert decision == ScaleDecision("grow", 1)
        assert scaler.counters.scale_ups == 1

    def test_grow_blocked_by_cooldown_then_allowed(self):
        scaler = self.scaler()
        assert observe(scaler, 0.0, queue=0.9) is not None
        assert observe(scaler, 0.5, queue=0.9) is None
        assert scaler.counters.blocked_cooldown == 1
        assert observe(scaler, 1.5, queue=0.9) is not None

    def test_grow_blocked_at_max_machines(self):
        scaler = self.scaler(max_machines=4)
        assert observe(scaler, 0.0, queue=0.9, live=4) is None
        assert scaler.counters.blocked_bounds == 1

    def test_grow_step_clipped_to_bound(self):
        scaler = self.scaler(max_machines=6, GROW_STEP=4)
        assert observe(scaler, 0.0, queue=0.9, live=4) \
            == ScaleDecision("grow", 2)

    def test_shrink_requires_hold(self):
        scaler = self.scaler(COOLDOWN_S=0.0)
        assert observe(scaler, 0.0, queue=0.0) is None   # calm starts
        assert observe(scaler, 0.5, queue=0.0) is None   # still holding
        assert observe(scaler, 1.5, queue=0.0) \
            == ScaleDecision("shrink", 1)
        assert scaler.counters.scale_downs == 1

    def test_band_sample_resets_calm_clock(self):
        scaler = self.scaler(COOLDOWN_S=0.0)
        observe(scaler, 0.0, queue=0.0)
        observe(scaler, 0.5, queue=0.3)   # hysteresis band: not calm
        assert observe(scaler, 1.5, queue=0.0) is None  # clock restarted
        assert observe(scaler, 3.0, queue=0.0) \
            == ScaleDecision("shrink", 1)

    def test_shrink_blocked_at_min_machines(self):
        scaler = self.scaler(HOLD_S=0.0, COOLDOWN_S=0.0)
        observe(scaler, 0.0, queue=0.0, live=2)
        assert observe(scaler, 1.0, queue=0.0, live=2) is None
        assert scaler.counters.blocked_bounds == 1

    def test_ewma_smooths_a_spike(self, monkeypatch):
        monkeypatch.undo()  # the shipped policy, not the fixture's
        scaler = Autoscaler(AutoscalerConfig(), 2)
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
        scaler = self.scaler()
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
        autoscale=AutoscalerConfig(max_machines=4))
    source = spiky_rate("S1", [(250.0, 0.5), (1400.0, 2.0)],
                        key_fn=lambda i: f"k{i % 64}")
    runtime = SimRuntime(build_e24_diurnal_app(),
                         ClusterSpec.uniform(2, cores=1), config, [source])
    report = runtime.run(6.0)
    elastic = report.metrics["elastic"]
    assert elastic["autoscaler.scale_ups"] >= 1
    assert len(runtime.machines) == 2 + (
        autoscaler_module.GROW_STEP * elastic["autoscaler.scale_ups"])
    # Each one entered the ring: it is live, or retired by a shrink.
    assert elastic["machines_live"] + elastic["machines_retired"] \
        == len(runtime.machines)
