"""SimRuntime: correctness and the Section 4/5 behaviours, both engines."""

import pytest

from repro.cluster import ClusterSpec
from repro.core import Application, ReferenceExecutor
from repro.sim import (ENGINE_MUPPET1, ENGINE_MUPPET2, SimConfig,
                       SimRuntime, constant_rate, from_trace)
from repro.workloads import CheckinGenerator
from repro.apps import build_retailer_app
from tests.conftest import build_count_app, build_two_stage_app


def count_source(n=200, keys=10, rate=200.0):
    return constant_rate("S1", rate_per_s=rate, duration_s=n / rate,
                         key_fn=lambda i: f"k{i % keys}")


def run_sim(app, engine=ENGINE_MUPPET2, machines=3, duration=4.0,
            sources=None, config=None, failures=(), cores=4):
    cfg = config or SimConfig(engine=engine)
    cfg.engine = engine
    runtime = SimRuntime(app, ClusterSpec.uniform(machines, cores=cores),
                         cfg, sources or [count_source()],
                         failures=failures)
    report = runtime.run(duration)
    return runtime, report


class TestCorrectnessBothEngines:
    @pytest.mark.parametrize("engine", [ENGINE_MUPPET1, ENGINE_MUPPET2])
    def test_counts_match_input(self, engine):
        runtime, report = run_sim(build_count_app(), engine=engine)
        total = sum(runtime.slate("U1", f"k{i}")["count"]
                    for i in range(10))
        assert total == 200
        assert report.counters.lost_total() == 0

    @pytest.mark.parametrize("engine", [ENGINE_MUPPET1, ENGINE_MUPPET2])
    def test_two_stage_counts(self, engine):
        runtime, _ = run_sim(build_two_stage_app(), engine=engine)
        total = sum(runtime.slate("U2", f"k{i}")["count"]
                    for i in range(10))
        assert total == 200

    @pytest.mark.parametrize("engine", [ENGINE_MUPPET1, ENGINE_MUPPET2])
    def test_matches_reference_executor(self, engine):
        """The distributed engines reach the reference slate fixpoint for
        commutative apps (Section 3's well-definedness, approximated)."""
        gen = CheckinGenerator(rate_per_s=300, seed=11)
        events, truth = gen.take_with_truth(600)
        reference = ReferenceExecutor(build_retailer_app()).run(
            list(events))
        ref_counts = {k: s["count"]
                      for k, s in reference.slates_of("U1").items()}
        assert ref_counts == truth

        runtime, report = run_sim(
            build_retailer_app(), engine=engine,
            sources=[from_trace("S1", events)], duration=6.0)
        sim_counts = {k: v["count"]
                      for k, v in runtime.slates_of("U1").items()
                      if v["count"]}
        assert sim_counts == truth
        assert report.counters.lost_total() == 0


class TestLatencyAndThroughput:
    def test_latency_recorded_at_updaters(self):
        _, report = run_sim(build_count_app())
        assert report.latency is not None
        assert report.latency.count == 200
        assert 0 < report.latency.p99 < 2.0  # the §5 bound

    def test_latency_by_updater(self):
        _, report = run_sim(build_two_stage_app())
        assert set(report.latency_by_updater) == {"U1", "U2"}
        # Downstream updater sees strictly more pipeline than upstream.
        assert report.latency_by_updater["U2"].mean > \
            report.latency_by_updater["U1"].mean

    def test_latency_sinks_filter(self):
        cfg = SimConfig(latency_sinks={"U2"})
        _, report = run_sim(build_two_stage_app(), config=cfg)
        assert set(report.latency_by_updater) == {"U2"}

    def test_throughput_report(self):
        _, report = run_sim(build_count_app(), duration=4.0)
        assert report.throughput.events == report.counters.processed
        assert report.events_per_second() == pytest.approx(
            report.counters.processed / 4.0)


class TestEngineDifferences:
    def test_muppet1_uses_more_memory(self):
        """Section 4.5: per-worker code copies waste memory."""
        cfg1 = SimConfig(engine=ENGINE_MUPPET1,
                         workers_per_function_per_machine=3)
        _, report1 = run_sim(build_count_app(), engine=ENGINE_MUPPET1,
                             config=cfg1)
        _, report2 = run_sim(build_count_app(), engine=ENGINE_MUPPET2)
        assert report1.memory_mb_per_machine > \
            2 * report2.memory_mb_per_machine

    def test_muppet2_two_choice_stats_populated(self):
        _, report = run_sim(build_count_app(), engine=ENGINE_MUPPET2)
        assert report.dispatch_stats["dispatched"] > 0
        assert report.dispatch_stats["queue_locks"] <= \
            2 * report.dispatch_stats["dispatched"]

    def test_slate_contention_bounded_to_two(self):
        _, report = run_sim(build_count_app(), engine=ENGINE_MUPPET2)
        assert report.max_workers_per_slate <= 2

    def test_muppet1_single_owner_no_contention(self):
        _, report = run_sim(build_count_app(), engine=ENGINE_MUPPET1)
        assert report.max_workers_per_slate == 1
        assert report.slate_contention_events == 0


class TestDeterminism:
    def test_identical_runs_identical_reports(self):
        def once():
            runtime, report = run_sim(build_count_app())
            return (report.counters.snapshot(),
                    report.latency.p99 if report.latency else None,
                    {k: v["count"]
                     for k, v in runtime.slates_of("U1").items()})

        assert once() == once()

    def test_determinism_with_failures_and_joins(self):
        """Failure injection and elastic joins keep runs bit-identical —
        the property the whole experiment suite rests on."""
        def once():
            runtime = SimRuntime(
                build_count_app(), ClusterSpec.uniform(3, cores=4),
                SimConfig(), [count_source(n=400, rate=400.0)],
                failures=[(0.6, "m001")])
            runtime.schedule_add_machine(0.4, "m_new", cores=4)
            report = runtime.run(5.0)
            return (report.counters.snapshot(),
                    report.failure_detection_s,
                    {k: v["count"]
                     for k, v in runtime.slates_of("U1").items()})

        assert once() == once()

    def test_muppet1_kv_write_order_does_not_follow_addresses(self):
        """Many private managers per machine, flushed often into small
        memtables: their flush order is the kv write order, so it must
        be worker order, not the order a set of objects iterates in."""
        from repro.core import Event
        from repro.slates.manager import FlushPolicy

        events = [Event("S1", i * 0.0005, f"k{i % 97}", i)
                  for i in range(6_000)]

        def once():
            runtime = SimRuntime(
                build_two_stage_app(), ClusterSpec.uniform(2, cores=4),
                SimConfig(engine=ENGINE_MUPPET1,
                          workers_per_function_per_machine=3,
                          flush_policy=FlushPolicy.every(0.05),
                          kv_memtable_flush_bytes=2048),
                [from_trace("S1", events)])
            report = runtime.run(5.0)
            return report.kv_stats, report.device_stats, report.metrics

        first = once()
        moved = [object() for _ in range(100_000)]  # shifts later addresses
        assert once() == first
        del moved


class TestReportIsASnapshot:
    """A report describes the run up to its ``run`` call; running the
    same runtime on leaves it as it was."""

    def test_a_later_run_leaves_an_earlier_report_alone(self):
        runtime = SimRuntime(
            build_count_app(), ClusterSpec.uniform(2, cores=2), SimConfig(),
            [constant_rate("S1", 1000.0, 2.0, key_fn=lambda i: f"k{i % 8}")])
        first = runtime.run(1.0)
        before = (first.counters.snapshot(), first.dataplane.as_dict(),
                  first.shedding.as_dict(), first.counter_report())
        assert f"counters.processed={first.counters.processed}" \
            in before[3]
        second = runtime.run(3.0)
        assert second.counters.processed > before[0]["processed"]
        assert (first.counters.snapshot(), first.dataplane.as_dict(),
                first.shedding.as_dict(), first.counter_report()) == before

    def test_latency_histograms_count_every_sample(self):
        runtime = SimRuntime(
            build_count_app(), ClusterSpec.uniform(2, cores=2), SimConfig(),
            [constant_rate("S1", 1000.0, 2.0, key_fn=lambda i: f"k{i % 8}")])
        runtime.run(1.0)
        report = runtime.run(3.0)
        assert report.metrics["latency"]["U1.count"] \
            == len(runtime.latency["U1"]) > 0

    def test_a_split_run_equals_one_run(self):
        """A later run resumes the sources and background ticks the
        first one scheduled; it does not schedule them again."""
        from repro.apps.counting import count_app
        from repro.slates.manager import FlushPolicy

        def runtime():
            return SimRuntime(
                count_app("c", hops=1), ClusterSpec.uniform(2, cores=2),
                SimConfig(delivery_semantics="effectively-once",
                          batch_max_events=16, batch_linger_s=0.002,
                          flush_policy=FlushPolicy.every(0.2)),
                [constant_rate("S1", 1000.0, 2.0,
                               key_fn=lambda i: f"k{i % 50}")])

        split, whole = runtime(), runtime()
        split.run(1.0)
        resumed, once = split.run(3.0), whole.run(3.0)
        assert split.sim.steps == whole.sim.steps
        assert resumed.counter_report() == once.counter_report()
        assert "checkpoint_epochs=3" in once.counter_report()
        assert split.slates_of("U1") == whole.slates_of("U1")


class TestTimersInSim:
    def test_windowed_app_fires_timers(self):
        from repro.core import Updater

        class Windowed(Updater):
            def init_slate(self, key):
                return {"count": 0, "fired": 0}

            def update(self, ctx, event, slate):
                if slate["count"] == 0:
                    ctx.set_timer(event.ts + 0.5)
                slate["count"] += 1

            def on_timer(self, ctx, key, slate, payload=None):
                slate["fired"] += 1

        app = Application("w")
        app.add_stream("S1", external=True)
        app.add_updater("U1", Windowed, subscribes=["S1"])
        runtime, _ = run_sim(app, duration=5.0)
        fired = sum(v["fired"] for v in runtime.slates_of("U1").values())
        assert fired == 10  # one per key
