"""The overload-control subsystem wired into the simulator.

Reduced-scale versions of the E22 contracts that must hold in tier-1:
shedding off is byte-identical to pre-shedding builds, seeded overload
runs replay exactly, the ``overload`` metrics family is complete, and
diverted events keep their replay-stable provenance.
"""

from __future__ import annotations

from repro.analysis.invariants import check_trace
from repro.campaign.e22_shedding import E22_OVERFLOW_SID, e22_overload_run
from repro.cluster import ClusterSpec
from repro.shedding.controller import TIER_NAMES
from repro.sim import SimConfig, SimRuntime, constant_rate
from tests.conftest import build_count_app


def run_count_app():
    runtime = SimRuntime(
        build_count_app(), ClusterSpec.uniform(2, cores=2), SimConfig(),
        [constant_rate("S1", rate_per_s=200.0, duration_s=1.0,
                       key_fn=lambda i: f"k{i % 5}")])
    return runtime.run(3.0)


class TestSheddingOff:
    def test_counters_all_zero_and_reported(self):
        report = run_count_app()
        assert report.shedding.as_dict() == {
            "thinned": 0, "kept_weighted": 0, "weight_applied": 0.0,
            "diverted_proactive": 0, "escalations": 0,
            "deescalations": 0, "time_normal_s": 0.0,
            "time_thin_s": 0.0, "time_overflow_s": 0.0,
            "time_throttle_s": 0.0}
        text = report.counter_report()
        assert "overload.thinned=0" in text
        assert "overload.throttle_duty=0.0" in text

    def test_run_to_run_byte_identical(self):
        assert run_count_app().counter_report() \
            == run_count_app().counter_report()


class TestOverloadRuns:
    def test_overload_metrics_family_is_complete(self):
        runtime, report = e22_overload_run(policy="thin", overload=3.0,
                                           duration_s=1.0)
        family = report.metrics["overload"]
        assert family["thinned"] == report.shedding.thinned > 0
        assert family["escalations"] > 0
        for name in TIER_NAMES:
            assert f"time_{name}_s" in family
        # Per-queue overflow outcomes are zero-filled per machine so
        # the key set never depends on load.
        for machine in ("m000", "m001"):
            for outcome in ("dropped", "diverted", "diverted_proactive",
                            "throttle_retries"):
                assert f"queue.{machine}.{outcome}" in family
        assert "throttle_duty" in family
        assert report.counters.lost_total() == 0

    def test_seeded_overload_replays_exactly(self):
        _, first = e22_overload_run(policy="thin", overload=3.0,
                                    duration_s=1.0)
        _, second = e22_overload_run(policy="thin", overload=3.0,
                                     duration_s=1.0)
        assert first.counter_report() == second.counter_report()

    def test_different_seed_thins_differently(self):
        """The seed really is the only randomness source: changing it
        moves individual thinning decisions (stratified phases) while
        the totals stay in the same regime."""
        _, a = e22_overload_run(policy="thin", overload=3.0,
                                duration_s=1.0, seed=11)
        _, b = e22_overload_run(policy="thin", overload=3.0,
                                duration_s=1.0, seed=12)
        assert a.shedding.thinned > 0 and b.shedding.thinned > 0
        assert a.counter_report() != b.counter_report()


class TestDivertProvenance:
    def test_diverted_events_keep_origin_identity(self):
        """A queue-full diverted event carries its original
        ``(origin, oseq)`` through the overflow re-stamp: every shed
        span's identity reappears on a degraded-path execute span, and
        none of the diverted identities double-execute on U1."""
        runtime, report = e22_overload_run(
            policy="divert", overload=3.0, duration_s=1.0, trace=True)
        assert report.counters.diverted_overflow_stream > 0
        spans = runtime.tracer.spans()
        diverted = {(s["origin"], s["oseq"]) for s in spans
                    if s["kind"] == "shed" and s["outcome"] == "divert"}
        assert diverted
        dropped = {(s["origin"], s["oseq"]) for s in spans
                   if s["kind"] == "shed" and s["outcome"] == "drop"}
        by_op = {}
        for span in spans:
            if span["kind"] == "execute":
                by_op.setdefault(span["op"], set()).add(
                    (span["origin"], span["oseq"]))
        # Every diverted identity reaches a terminal under that same
        # identity: a degraded-path execute, or a drop if the overflow
        # queue itself was full (a diverted event never re-diverts).
        assert diverted <= by_op["U_OVF"] | dropped
        assert diverted & by_op["U_OVF"]
        # Provenance is original, not re-stamped onto the overflow sid.
        assert all(origin == "S1" for origin, _ in diverted)
        assert not any(origin == E22_OVERFLOW_SID
                       for origin, _ in by_op["U_OVF"])

    def test_shed_accounting_invariant_on_thin_trace(self):
        """Reduced-scale version of the E22 invariant gate: every event
        reaches exactly one terminal under the adaptive policy."""
        runtime, _ = e22_overload_run(overload=2.0, duration_s=1.0,
                                      trace=True)
        violations = check_trace(runtime.tracer, checks=["shed_accounting"])
        assert violations == []
