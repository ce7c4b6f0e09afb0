"""Baselines: snapshot MapReduce, micro-batch, Storm-style topology."""

import json
from collections import Counter

import pytest

from repro.baselines.mapreduce import MapReduceCosts, periodic_job_staleness
from repro.baselines.mapreduce_online import (MicroBatchEngine,
                                              counting_reduce)
from repro.baselines.storm_like import StormLikeTopology
from repro.core import Event
from repro.errors import ConfigurationError
from repro.workloads import CheckinGenerator
from repro.apps.retailer_count import match_retailer


def retailer_map(key, value):
    venue = json.loads(value)["venue"]["name"]
    retailer = match_retailer(venue)
    if retailer:
        yield (retailer, 1)


def checkin_events(n=1500, seed=61):
    return CheckinGenerator(rate_per_s=100, seed=seed).take_with_truth(n)


class TestMapReduceJob:
    """The snapshot job's cost model (``MapReduceCosts``)."""

    def test_duration_includes_startup(self):
        costs = MapReduceCosts(job_startup_s=5.0)
        assert costs.job_duration(0, parallelism=8) == 5.0
        assert costs.job_duration(1000, parallelism=8) > 5.0

    def test_staleness_grows_with_history(self):
        """Snapshot jobs reprocess everything: answers get *staler* as
        the stream accumulates (Section 2's core complaint)."""
        young = periodic_job_staleness(1000, period_s=600,
                                       history_records=10 ** 6)
        old = periodic_job_staleness(1000, period_s=600,
                                     history_records=10 ** 8)
        assert old > young
        assert young > 300  # at least half the period

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MapReduceCosts().job_duration(10, parallelism=0)


class TestMicroBatch:
    def test_state_matches_truth(self):
        events, truth = checkin_events()
        engine = MicroBatchEngine(retailer_map, counting_reduce,
                                  batch_interval_s=2.0)
        report = engine.run(events)
        assert report.state == truth

    def test_latency_bounded_below_by_batching(self):
        """Every event waits for its batch to close: mean latency is at
        least ~half the interval — the structural gap MapUpdate closes."""
        events, _ = checkin_events(1000)
        engine = MicroBatchEngine(retailer_map, counting_reduce,
                                  batch_interval_s=4.0)
        report = engine.run(events)
        assert report.latency.summary().mean > 1.0
        assert report.latency.summary().p50 > 0.5

    def test_smaller_batches_lower_latency_more_batches(self):
        events, _ = checkin_events(1000)
        coarse = MicroBatchEngine(retailer_map, counting_reduce,
                                  batch_interval_s=5.0).run(list(events))
        fine = MicroBatchEngine(retailer_map, counting_reduce,
                                batch_interval_s=0.5).run(list(events))
        assert fine.batches > coarse.batches
        assert fine.latency.summary().mean < coarse.latency.summary().mean

    def test_carried_state_across_batches(self):
        events = [Event("S1", float(t), "k",
                        json.dumps({"venue": {"name": "Walmart"}}))
                  for t in range(20)]
        report = MicroBatchEngine(retailer_map, counting_reduce,
                                  batch_interval_s=5.0).run(events)
        assert report.state == {"Walmart": 20}
        assert report.batches == 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MicroBatchEngine(retailer_map, counting_reduce,
                             batch_interval_s=0)


def count_bolt(event, state, emit):
    venue = json.loads(event.value)["venue"]["name"]
    retailer = match_retailer(venue)
    if retailer:
        state[retailer] = state.get(retailer, 0) + 1


class TestStormLike:
    def build(self, parallelism=4):
        topology = StormLikeTopology("S1")
        topology.add_bolt("count", count_bolt, subscribes=["S1"],
                          parallelism=parallelism)
        return topology

    def gather(self, topology):
        total = Counter()
        for instance in topology.instances("count"):
            for key, value in instance.state.items():
                total[key] += value
        return dict(total)

    def test_counts_match_truth(self):
        events, truth = checkin_events()
        topology = self.build()
        assert topology.process(events) == len(events)
        assert self.gather(topology) == truth

    def test_fields_grouping_consistent(self):
        """Same key always reaches the same instance."""
        topology = self.build(parallelism=8)
        events = [Event("S1", float(i), "same-user",
                        json.dumps({"venue": {"name": "Walmart"}}))
                  for i in range(100)]
        topology.process(events)
        holders = [inst for inst in topology.instances("count")
                   if inst.state]
        assert len(holders) == 1
        assert holders[0].state["Walmart"] == 100

    def test_crash_loses_state_forever(self):
        """The paper's §6 contrast: app-managed state has no slates to
        refetch — a restart starts from zero."""
        events, truth = checkin_events(1000)
        topology = self.build()
        topology.process(events)
        before = sum(self.gather(topology).values())
        lost = topology.crash_instance("count", 0)
        after = sum(self.gather(topology).values())
        assert lost > 0
        assert after < before
        assert topology.stats["count"].state_entries_lost == lost

    def test_emit_routes_downstream(self):
        topology = StormLikeTopology("S1")

        def forwarder(event, state, emit):
            emit("S2", event.key, event.value)

        def sink(event, state, emit):
            state["seen"] = state.get("seen", 0) + 1

        topology.add_bolt("fwd", forwarder, subscribes=["S1"])
        topology.add_bolt("sink", sink, subscribes=["S2"], parallelism=2)
        topology.process([Event("S1", float(i), f"k{i}") for i in range(10)])
        assert sum(len(inst.state)
                   for inst in topology._bolts["sink"][1]) >= 1
        assert topology.stats["fwd"].emitted == 10

    def test_duplicate_bolt_rejected(self):
        topology = self.build()
        with pytest.raises(ConfigurationError):
            topology.add_bolt("count", count_bolt, subscribes=["S1"])
