"""Ground-truth counter-error measurement and loss accounting."""

from __future__ import annotations

import pytest

from repro.core import Application, ReferenceExecutor
from repro.errors import AnalysisError
from repro.shedding.measure import (counter_error, loss_summary,
                                    measure_counter_error)
from repro.shedding.thinning import ThinnableCounter
from tests.conftest import make_events


def slates(**counts):
    return {key: {"count": value} for key, value in counts.items()}


class TestCounterError:
    def test_exact_match_is_zero_error(self):
        report = counter_error(slates(a=10.0, b=3.0),
                               {"a": 10.0, "b": 3.0}, "U1", "count")
        assert report.compared == 2
        assert report.missing_keys == 0
        assert report.max_rel_error == 0.0
        assert report.mean_rel_error == 0.0
        assert report.worst_key == ""

    def test_relative_error_math(self):
        report = counter_error(slates(a=90.0, b=105.0),
                               {"a": 100.0, "b": 100.0}, "U1", "count")
        assert report.per_key["a"] == pytest.approx(0.10)
        assert report.per_key["b"] == pytest.approx(0.05)
        assert report.max_rel_error == pytest.approx(0.10)
        assert report.mean_rel_error == pytest.approx(0.075)
        assert report.worst_key == "a"

    def test_missing_key_reported_separately(self):
        report = counter_error(slates(a=100.0),
                               {"a": 100.0, "gone": 50.0}, "U1", "count")
        assert report.missing_keys == 1
        assert report.compared == 1
        # Total loss of a key does NOT hide inside mean/max.
        assert report.mean_rel_error == 0.0

    def test_missing_field_counts_as_missing(self):
        report = counter_error({"a": {"other": 1.0}}, {"a": 1.0},
                               "U1", "count")
        assert report.missing_keys == 1
        assert report.compared == 0

    def test_zero_truth_compares_absolutely(self):
        report = counter_error(slates(a=0.0, b=4.0),
                               {"a": 0.0, "b": 0.0}, "U1", "count")
        assert report.per_key["a"] == 0.0
        assert report.per_key["b"] == 1.0

    @pytest.mark.parametrize("bad", ["12", None, True, [1]])
    def test_non_numeric_measurement_raises(self, bad):
        with pytest.raises(AnalysisError):
            counter_error({"a": {"count": bad}}, {"a": 1.0},
                          "U1", "count")

    def test_empty_truth(self):
        report = counter_error({}, {}, "U1", "count")
        assert report.compared == 0
        assert report.mean_rel_error == 0.0


def build_thinnable_app():
    app = Application("measure-test")
    app.add_stream("S1", external=True)
    app.add_updater("U1", ThinnableCounter, subscribes=["S1"])
    app.validate()
    return app


class TestAgainstReference:
    def test_reference_slates_have_zero_error_vs_themselves(self):
        app = build_thinnable_app()
        result = ReferenceExecutor(app).run(make_events(120, keys=4))
        report = measure_counter_error(result.slates_of("U1"), result,
                                       "U1", "count")
        assert report.compared == 4
        assert report.max_rel_error == 0.0
        assert report.missing_keys == 0

    def test_perturbed_run_shows_the_deviation(self):
        app = build_thinnable_app()
        result = ReferenceExecutor(app).run(make_events(120, keys=4))
        measured = {key: {fld: slate[fld] for fld in slate}
                    for key, slate in result.slates_of("U1").items()}
        measured["k0"]["count"] = measured["k0"]["count"] * 1.5
        del measured["k1"]
        report = measure_counter_error(measured, result, "U1", "count")
        assert report.max_rel_error == pytest.approx(0.5)
        assert report.worst_key == "k0"
        assert report.missing_keys == 1


class TestLossSummary:
    def test_lossless_run(self):
        from tests.conftest import build_count_app
        from repro.cluster import ClusterSpec
        from repro.sim import SimConfig, SimRuntime, constant_rate

        runtime = SimRuntime(
            build_count_app(), ClusterSpec.uniform(2, cores=2),
            SimConfig(),
            [constant_rate("S1", rate_per_s=200.0, duration_s=1.0,
                           key_fn=lambda i: f"k{i % 5}")])
        report = runtime.run(3.0)
        summary = loss_summary(report)
        # 200 source events on S1 plus the 200 the mapper republishes.
        assert summary["published"] == 400
        assert summary["lost"] == 0
        assert summary["degraded"] == 0
        assert summary["thinned"] == 0
        assert summary["throttled"] == 0
        assert summary["throttle_paused_s"] == 0.0
