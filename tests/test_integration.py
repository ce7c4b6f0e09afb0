"""Cross-module integration: the same apps on every engine agree.

The paper's implicit contract — an application written once runs on
Muppet 1.0 and 2.0 unchanged — plus our own: all engines approximate the
reference executor's slate fixpoints (Section 3's well-defined semantics).
"""

import pytest

from repro.apps import (build_retailer_app, build_reputation_app,
                        build_split_app)
from repro.cluster import ClusterSpec
from repro.core import ReferenceExecutor
from repro.muppet.local import LocalConfig, LocalMuppet
from repro.sim import (ENGINE_MUPPET1, ENGINE_MUPPET2, SimConfig,
                       SimRuntime, from_trace)
from repro.workloads import CheckinGenerator, TweetGenerator


@pytest.fixture(scope="module")
def checkins():
    return CheckinGenerator(rate_per_s=300, seed=71).take_with_truth(900)


class TestRetailerAcrossEngines:
    def test_reference(self, checkins):
        events, truth = checkins
        result = ReferenceExecutor(build_retailer_app()).run(list(events))
        assert {k: s["count"]
                for k, s in result.slates_of("U1").items()} == truth

    def test_local_threads(self, checkins):
        events, truth = checkins
        with LocalMuppet(build_retailer_app(),
                         LocalConfig(num_threads=4)) as runtime:
            runtime.ingest_many(list(events))
            assert runtime.drain()
            got = {k: v["count"]
                   for k, v in runtime.read_slates_of("U1").items()}
        assert got == truth

    @pytest.mark.parametrize("engine", [ENGINE_MUPPET1, ENGINE_MUPPET2])
    def test_simulated_cluster(self, checkins, engine):
        events, truth = checkins
        runtime = SimRuntime(build_retailer_app(),
                             ClusterSpec.uniform(4, cores=4),
                             SimConfig(engine=engine),
                             [from_trace("S1", list(events))])
        report = runtime.run(10.0)
        got = {k: v["count"] for k, v in runtime.slates_of("U1").items()}
        assert got == truth
        assert report.counters.lost_total() == 0


class TestSplitAppAcrossEngines:
    @pytest.mark.parametrize("engine", [ENGINE_MUPPET1, ENGINE_MUPPET2])
    def test_example6_invariant_on_cluster(self, engine):
        generator = CheckinGenerator(seed=73, hot_retailer="Best Buy",
                                     hot_share=0.8, rate_per_s=300)
        events, truth = generator.take_with_truth(900)
        app = build_split_app(hot_keys=["Best Buy"], num_splits=4,
                              emit_every=5)
        runtime = SimRuntime(app, ClusterSpec.uniform(4, cores=4),
                             SimConfig(engine=engine),
                             [from_trace("S1", events)])
        runtime.run(10.0)
        merged = {k: v["count"] for k, v in runtime.slates_of("U2").items()}
        assert merged == truth


class TestReputationAcrossEngines:
    def test_total_score_mass_close_to_reference(self):
        """Reputation is order-sensitive (an endorsement carries the
        endorser's score *at emission time*), so engines only approximate
        the reference — exactly the caveat Section 3 ends on. The user
        populations and totals must still agree closely."""
        events = TweetGenerator(rate_per_s=200, seed=74).take(300)
        reference = ReferenceExecutor(build_reputation_app()).run(
            list(events))
        ref_slates = reference.slates_of("U1")
        ref_total = sum(s["score"] for s in ref_slates.values())
        with LocalMuppet(build_reputation_app(),
                         LocalConfig(num_threads=1)) as runtime:
            runtime.ingest_many(list(events))
            assert runtime.drain()
            local_slates = runtime.read_slates_of("U1")
            local_total = sum(v["score"] for v in local_slates.values())
        assert set(local_slates) == set(ref_slates)
        assert local_total == pytest.approx(ref_total, rel=0.01)
        # Activity counts (order-insensitive) agree exactly.
        assert {k: v["tweets"] for k, v in local_slates.items()} == \
            {k: s["tweets"] for k, s in ref_slates.items()}
