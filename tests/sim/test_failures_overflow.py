"""Simulated failures (Section 4.3) and overflow policies (Sections 4.3/5)."""

import pytest

from repro.cluster import ClusterSpec
from repro.muppet.queues import OverflowPolicy, SourceThrottle
from repro.sim import (ENGINE_MUPPET1, ENGINE_MUPPET2, SimConfig,
                       SimRuntime, constant_rate)
from repro.core import Application
from tests.conftest import CountingUpdater, EchoMapper, build_count_app


def source(n=400, keys=20, rate=400.0):
    return constant_rate("S1", rate_per_s=rate, duration_s=n / rate,
                         key_fn=lambda i: f"k{i % keys}")


class TestMachineFailure:
    @pytest.mark.parametrize("engine", [ENGINE_MUPPET1, ENGINE_MUPPET2])
    def test_failure_detected_and_rerouted(self, engine):
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(4, cores=4),
                             SimConfig(engine=engine), [source()],
                             failures=[(0.5, "m001")])
        report = runtime.run(3.0)
        # Failure is detected quickly (one send + two network hops).
        assert report.failure_detection_s is not None
        assert report.failure_detection_s < 0.1
        assert report.master_stats["broadcasts_sent"] == 1
        # Bounded loss; the rest of the stream flows on. Note the total
        # can fall short by more than lost_failure: updates processed on
        # the dead machine whose slates were not yet flushed are lost
        # too ("whatever changes ... not yet flushed ... are lost").
        assert 0 < report.counters.lost_failure < 200
        total = sum(v["count"]
                    for v in runtime.slates_of("U1").values())
        assert 300 <= total <= 400
        # Keys owned by surviving machines are complete: 400/20 = 20 per
        # key; at least half the keys must be fully counted.
        complete = sum(1 for v in runtime.slates_of("U1").values()
                       if v["count"] == 20)
        assert complete >= 10

    def test_no_failure_no_loss(self):
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(4, cores=4),
                             SimConfig(), [source()])
        report = runtime.run(3.0)
        assert report.counters.lost_failure == 0
        assert report.failure_detection_s is None

    def test_unflushed_slates_lost_on_failure(self):
        """Section 4.3: unflushed slate changes on the dead machine are
        lost; flushed state survives in the kv-store."""
        from repro.slates.manager import FlushPolicy

        cfg = SimConfig(flush_policy=FlushPolicy.every(1000.0))  # never
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(3, cores=4), cfg,
                             [source()], failures=[(0.6, "m001")])
        runtime.run(3.0)
        machine = runtime.machines["m001"]
        mgr = machine.central_mgr
        assert mgr is not None
        assert mgr.stats.lost_dirty_on_crash > 0

    def test_events_on_dead_machine_queue_are_lost(self):
        cfg = SimConfig()
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(3, cores=1), cfg,
                             [source(rate=2000.0, n=1000)],
                             failures=[(0.2, "m002")])
        report = runtime.run(4.0)
        assert report.counters.lost_failure > 0

    @pytest.mark.parametrize("engine", [ENGINE_MUPPET1, ENGINE_MUPPET2])
    def test_no_live_owner_is_data_loss(self, engine):
        """Every machine dead and declared: the ring has no live member
        left, and what is still sent is lost — and counted as lost."""
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(2, cores=4),
                             SimConfig(engine=engine), [source()],
                             failures=[(0.3, "m000"), (0.3, "m001")])
        report = runtime.run(3.0)
        assert runtime._known_failed == {"m000", "m001"}
        assert report.counters.processed < 400
        # Each source event is lost once: queued at the crash, sent to a
        # dead machine, or sent when no owner was left.
        sent_to_nobody = 400 - report.counters.processed
        assert report.counters.lost_failure >= sent_to_nobody > 0
        assert runtime.slate("U1", "never-seen") is None

    def test_a_routing_bug_is_not_booked_as_data_loss(self):
        """Only the ring's documented "no live member" error means a
        lost event; any other exception on the routing path is a bug
        and must surface, not inflate ``lost_failure``."""
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(2, cores=4),
                             SimConfig(), [source()])

        def broken_lookup(routing_key):
            raise RuntimeError("routing bug")

        runtime._machine_ring.lookup = broken_lookup
        with pytest.raises(RuntimeError, match="routing bug"):
            runtime.run(1.0)
        assert runtime.counters.lost_failure == 0

    def test_a_store_bug_is_not_answered_as_no_such_slate(self):
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(2, cores=4),
                             SimConfig(), [source()])
        runtime.run(3.0)

        def broken_read(row, column, **kwargs):
            raise RuntimeError("store bug")

        runtime.store.read = broken_read
        with pytest.raises(RuntimeError, match="store bug"):
            runtime.slate("U1", "not-cached")


class TestOverflowPolicies:
    def overloaded_config(self, **kwargs):
        """One slow machine, tiny queues → guaranteed overflow."""
        return SimConfig(queue_capacity=10, **kwargs)

    def overloaded_cluster(self):
        return ClusterSpec.uniform(1, cores=1)

    def hot_source(self):
        # Single key: everything lands on one worker.
        return constant_rate("S1", rate_per_s=20_000, duration_s=0.2,
                             key_fn=lambda i: "hot")

    def test_drop_policy_drops_and_counts(self):
        cfg = self.overloaded_config(overflow=OverflowPolicy.drop())
        runtime = SimRuntime(build_count_app(), self.overloaded_cluster(),
                             cfg, [self.hot_source()])
        report = runtime.run(5.0)
        assert report.counters.dropped_overflow > 0
        processed = runtime.slate("U1", "hot")["count"]
        assert processed < 4000

    def test_divert_policy_feeds_degraded_path(self):
        app = Application("degraded")
        app.add_stream("S1", external=True)
        app.add_stream("S2")
        app.add_stream("S_ovf", overflow=True)
        app.add_mapper("M1", EchoMapper, subscribes=["S1"],
                       publishes=["S2"])
        app.add_updater("U1", CountingUpdater, subscribes=["S2"])
        app.add_updater("U_cheap", CountingUpdater, subscribes=["S_ovf"])
        cfg = self.overloaded_config(
            overflow=OverflowPolicy.divert("S_ovf"))
        # Two threads: the hot key saturates one; the degraded path's
        # events can land on the other and actually get served.
        runtime = SimRuntime(app, ClusterSpec.uniform(1, cores=2), cfg,
                             [self.hot_source()])
        report = runtime.run(10.0)
        assert report.counters.diverted_overflow_stream > 0
        cheap = runtime.slate("U_cheap", "hot")
        assert cheap is not None and cheap["count"] > 0

    def test_throttle_policy_loses_nothing(self):
        """Source throttling: longer latency, complete processing (§5)."""
        cfg = self.overloaded_config(
            overflow=OverflowPolicy.throttle(),
            throttle=SourceThrottle(high_watermark=0.8,
                                    low_watermark=0.3))
        source_ = constant_rate("S1", rate_per_s=5_000, duration_s=0.2,
                                key_fn=lambda i: "hot")
        runtime = SimRuntime(build_count_app(), self.overloaded_cluster(),
                             cfg, [source_])
        report = runtime.run(20.0)
        assert report.counters.dropped_overflow == 0
        assert runtime.slate("U1", "hot")["count"] == 1000
        assert report.throttle_paused_s > 0  # sources actually paused
