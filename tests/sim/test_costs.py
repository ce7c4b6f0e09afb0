"""Cost models and the error hierarchy (small but load-bearing)."""

import pytest

import repro
from repro.errors import (ConfigurationError, QuorumError, ReproError,
                          SlateError, SlateTooLargeError, StoreError,
                          TimestampError, WorkflowError)
from repro.sim.costs import CostModel


class TestCostModel:
    def test_defaults_are_positive(self):
        costs = CostModel()
        assert costs.map_service_s > 0
        assert costs.update_service_s > 0

    def test_negative_cost_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(map_service_s=-1.0)

    def test_update_time_scales_with_cost_factor(self):
        costs = CostModel(update_service_s=100e-6)
        assert costs.update_time() == pytest.approx(100e-6)
        assert costs.update_time(3.0) == pytest.approx(300e-6)


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        ConfigurationError, WorkflowError, TimestampError, SlateError,
        SlateTooLargeError, StoreError, QuorumError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_workflow_is_configuration(self):
        assert issubclass(WorkflowError, ConfigurationError)

    def test_quorum_is_store(self):
        assert issubclass(QuorumError, StoreError)

    def test_slate_too_large_is_slate(self):
        assert issubclass(SlateTooLargeError, SlateError)


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_exports_resolve(self):
        import repro.apps
        import repro.baselines
        import repro.cluster
        import repro.core
        import repro.kvstore
        import repro.muppet
        import repro.sim
        import repro.workloads

        for module in (repro.apps, repro.baselines, repro.cluster,
                       repro.core, repro.kvstore, repro.muppet,
                       repro.sim, repro.workloads):
            for name in module.__all__:
                # hasattr, not is-not-None: TTL_FOREVER is legitimately
                # the None sentinel.
                assert hasattr(module, name), \
                    f"{module.__name__}.{name}"
