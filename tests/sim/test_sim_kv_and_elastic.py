"""Sim engine + kv-store interactions: consistency, kv failures, joins."""

import pytest

from repro.cluster import ClusterSpec
from repro.kvstore.api import ConsistencyLevel
from repro.sim import (ENGINE_MUPPET1, ENGINE_MUPPET2, SimConfig,
                       SimRuntime, constant_rate)
from repro.slates.manager import FlushPolicy
from tests.conftest import build_count_app


def run(config, machines=3, rate=1000.0, duration=1.0, failures=(),
        consistency=None):
    source = constant_rate("S1", rate_per_s=rate, duration_s=duration,
                           key_fn=lambda i: f"k{i % 32}")
    runtime = SimRuntime(build_count_app(),
                         ClusterSpec.uniform(machines, cores=4), config,
                         [source], failures=failures)
    if consistency is not None:  # the engine's own level is ONE
        for machine in runtime.machines.values():
            machine.central_mgr.consistency = consistency
    report = runtime.run(duration + 10.0)
    counted = sum(v["count"] for v in runtime.slates_of("U1").values())
    return runtime, report, counted


class TestConsistencyInEngines:
    @pytest.mark.parametrize("level", [ConsistencyLevel.ONE,
                                       ConsistencyLevel.QUORUM,
                                       ConsistencyLevel.ALL])
    def test_all_levels_count_correctly(self, level):
        config = SimConfig(flush_policy=FlushPolicy.write_through())
        _, report, counted = run(config, consistency=level)
        assert counted == 1000
        assert report.counters.lost_total() == 0

    def test_stronger_levels_cost_more_io(self):
        """ALL waits on the slowest of three replicas: more sync cost."""
        def kv_busy(level):
            config = SimConfig(flush_policy=FlushPolicy.write_through())
            runtime, _, __ = run(config, consistency=level)
            return sum(node.device.stats.busy_time_s
                       for node in runtime.store.nodes.values())

        assert kv_busy(ConsistencyLevel.ALL) >= \
            kv_busy(ConsistencyLevel.ONE)


class TestKvNodeFailure:
    def test_co_located_kv_death_survivable_with_replication(self):
        """kill_kv_on_machine_failure: the dead machine takes its kv
        node with it; rf=3 keeps slates readable."""
        config = SimConfig(kill_kv_on_machine_failure=True,
                           flush_policy=FlushPolicy.write_through())
        runtime, report, counted = run(config, machines=4,
                                       failures=[(0.5, "m001")])
        # The stream continues; most events are counted.
        assert counted >= 800
        # The kv node really went down.
        assert runtime.store.nodes["m001"].is_down


class TestElasticUnderLoad:
    @pytest.mark.parametrize("engine", [ENGINE_MUPPET1, ENGINE_MUPPET2])
    def test_join_during_heavy_load(self, engine):
        config = SimConfig(engine=engine, queue_capacity=200_000)
        source = constant_rate("S1", rate_per_s=8000, duration_s=1.0,
                               key_fn=lambda i: f"k{i % 128}")
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(2, cores=2), config,
                             [source])
        runtime.schedule_add_machine(0.5, "m_boost", cores=8)
        report = runtime.run(30.0)
        counted = sum(v["count"]
                      for v in runtime.slates_of("U1").values())
        # The rebalance barrier protects all *flushed* state, but an
        # event already in flight across the ring change can apply its
        # update to the old owner's orphaned cache copy — the exact
        # dual-owner hazard §5 describes. The loss bound is the
        # in-flight window (a handful of events at most).
        assert 8000 - 5 <= counted <= 8000
        assert report.counters.lost_total() == 0

    def test_join_then_failure(self):
        """A machine joins, another dies: both transitions compose."""
        config = SimConfig(queue_capacity=100_000)
        source = constant_rate("S1", rate_per_s=2000, duration_s=2.0,
                               key_fn=lambda i: f"k{i % 64}")
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(3, cores=4), config,
                             [source], failures=[(1.5, "m001")])
        runtime.schedule_add_machine(0.8, "m_new", cores=4)
        report = runtime.run(10.0)
        assert "m_new" in runtime.machines
        assert not runtime.machines["m001"].alive
        counted = sum(v["count"]
                      for v in runtime.slates_of("U1").values())
        # Bounded loss from the failure only.
        assert counted >= 3000
        assert report.master_stats["broadcasts_sent"] == 1
