"""E6 — Failure handling (Section 4.3).

Paper: workers detect dead peers on send ("in most cases ... allows us to
detect worker failures and recover from them in a timely fashion"); the
master broadcast reroutes the ring; queued events and unflushed slate
changes are lost by design, because "low latency is far more important
... The system should be able to cope with failures very quickly to avoid
falling too far behind the stream" — versus MapReduce, where "it is
always possible (even if inconvenient) to restart ... from scratch".
"""

from __future__ import annotations


from repro.baselines.mapreduce import MapReduceCosts
from repro.cluster import ClusterSpec
from repro.faults import FaultSchedule
from repro.obs import format_ms
from repro.sim import SimConfig, SimRuntime, constant_rate
from repro.slates.manager import FlushPolicy
from tests.conftest import build_count_app


def run_with_failure(flush_interval: float, machines: int = 4,
                     rate: float = 2000.0, duration: float = 2.0,
                     fail_at: float = 1.0):
    config = SimConfig(flush_policy=FlushPolicy.every(flush_interval),
                       queue_capacity=100_000)
    source = constant_rate("S1", rate_per_s=rate, duration_s=duration,
                           key_fn=lambda i: f"k{i % 64}")
    runtime = SimRuntime(build_count_app(),
                         ClusterSpec.uniform(machines, cores=4), config,
                         [source], failures=[(fail_at, "m001")])
    sim_report = runtime.run(duration + 10.0)
    counted = sum(v["count"] for v in runtime.slates_of("U1").values())
    return runtime, sim_report, counted, int(rate * duration)


def test_e6_detection_and_bounded_loss(benchmark, experiment):
    def run():
        return run_with_failure(flush_interval=0.2)

    runtime, sim_report, counted, offered = benchmark.pedantic(
        run, rounds=1, iterations=1)
    report = experiment("E6a-failure-recovery")
    report.claim("failures detected on send and broadcast by the master; "
                 "events to the dead machine are lost (and logged as "
                 "lost); the ring reroutes so the stream flows on")
    report.table(
        ["metric", "value"],
        [["machines", 4],
         ["failure injected at (s)", 1.0],
         ["detection time (ms)",
          # format_ms handles the no-send-touched-the-dead-machine case,
          # where detection is None (regression: this used to TypeError).
          format_ms(sim_report.failure_detection_s)],
         ["master broadcasts", sim_report.master_stats["broadcasts_sent"]],
         ["duplicate reports absorbed",
          sim_report.master_stats["duplicate_reports"]],
         ["offered events", offered],
         ["counted after failure", counted],
         ["events lost", sim_report.counters.lost_failure],
         ["loss fraction",
          f"{sim_report.counters.lost_failure / offered:.4f}"],
         ["post-failure p99 (ms)",
          f"{sim_report.latency.p99 * 1e3:.2f}"]])
    assert sim_report.failure_detection_s is not None
    assert sim_report.failure_detection_s < 0.1       # detected in ~one hop
    assert sim_report.counters.lost_failure < 0.15 * offered
    assert counted >= 0.75 * offered
    report.outcome(
        f"detected in {format_ms(sim_report.failure_detection_s, 0)} ms; "
        f"{sim_report.counters.lost_failure}/{offered} events lost "
        f"({100 * sim_report.counters.lost_failure / offered:.1f}%); "
        "stream never stops")


def test_e6_flush_interval_bounds_slate_loss(benchmark, experiment):
    """More frequent flushing = less slate state lost on a crash."""
    def run():
        rows = []
        for interval in (0.05, 0.5, 5.0):
            runtime, sim_report, counted, offered = run_with_failure(
                flush_interval=interval)
            machine = runtime.machines["m001"]
            lost_dirty = machine.central_mgr.stats.lost_dirty_on_crash
            rows.append((interval, lost_dirty, counted, offered))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report = experiment("E6b-flush-vs-loss")
    report.claim("whatever changes not yet flushed to the key-value "
                 "store are lost when an updater fails")
    report.table(
        ["flush interval (s)", "dirty slates lost", "counted", "offered"],
        [[i, d, c, o] for i, d, c, o in rows])
    dirty_losses = [d for _, d, __, ___ in rows]
    assert dirty_losses[0] <= dirty_losses[-1]
    assert dirty_losses[-1] > 0
    report.outcome("dirty-slate loss grows with the flush interval: "
                   f"{dirty_losses} for intervals 0.05/0.5/5 s")


def test_e6_vs_mapreduce_restart(benchmark, experiment):
    """MapReduce's answer to failure is a from-scratch restart: the
    recovery cost is the whole job, and the stream keeps accumulating
    meanwhile ('streams continue to flow at their own rate, oblivious to
    processing issues')."""
    def run():
        _, sim_report, counted, offered = run_with_failure(
            flush_interval=0.2)
        costs = MapReduceCosts()
        # A MapReduce job over one hour of stream history at our rate.
        history = int(2000 * 3600)
        restart_s = costs.job_duration(history, parallelism=32)
        backlog_after_restart = 2000 * restart_s
        return sim_report, restart_s, backlog_after_restart

    sim_report, restart_s, backlog = benchmark.pedantic(run, rounds=1,
                                                        iterations=1)
    report = experiment("E6c-vs-mapreduce-restart")
    report.claim("restarting a MapReduce computation from scratch is "
                 "possible but leaves the system far behind the stream; "
                 "Muppet recovers in one detection round")
    assert sim_report.failure_detection_s is not None
    detection_s = sim_report.failure_detection_s
    report.table(
        ["system", "recovery time", "events accumulated meanwhile"],
        [["Muppet (detect + reroute)",
          f"{format_ms(detection_s, 0)} ms",
          f"{int(2000 * detection_s)}"],
         ["MapReduce restart (1 h history, 32-way)",
          f"{restart_s:.0f} s", f"{int(backlog)}"]])
    assert restart_s > 100 * detection_s
    report.outcome(
        f"Muppet resumes in {format_ms(detection_s, 0)} ms "
        f"vs a {restart_s:.0f} s from-scratch reprocess — a "
        f"{restart_s / detection_s:,.0f}x gap")


def test_e6d_chaos_crash_recover(benchmark, experiment):
    """Beyond the paper: the Section 4.3 gap ('until operator
    intervention') closed. A chaos schedule kills a machine mid-stream
    and revives it; the master broadcasts recovery, the ring re-admits
    the machine, its slates re-hydrate lazily from the kv-store, and
    hinted handoff drains to its kv node."""
    rate, duration, flush = 2000.0, 3.0, 0.2

    def run():
        def simulate(schedule):
            config = SimConfig(flush_policy=FlushPolicy.every(flush),
                               queue_capacity=100_000,
                               kill_kv_on_machine_failure=True)
            source = constant_rate("S1", rate_per_s=rate,
                                   duration_s=duration,
                                   key_fn=lambda i: f"k{i % 64}")
            runtime = SimRuntime(build_count_app(),
                                 ClusterSpec.uniform(4, cores=4), config,
                                 [source], failures=schedule)
            sim_report = runtime.run(duration + 3.0)
            counted = sum(v["count"]
                          for v in runtime.slates_of("U1").values())
            return runtime, sim_report, counted

        _, free_report, free_counted = simulate(FaultSchedule())
        chaos = FaultSchedule(seed=7).crash(1.05, "m001", recover_at=2.0)
        runtime, chaos_report, chaos_counted = simulate(chaos)
        return (runtime, free_report, free_counted, chaos_report,
                chaos_counted)

    runtime, free_report, free_counted, chaos_report, chaos_counted = \
        benchmark.pedantic(run, rounds=1, iterations=1)
    rob = chaos_report.robustness
    report = experiment("E6d-chaos-crash-recover")
    report.claim("a crashed machine can rejoin: recovery broadcast, ring "
                 "re-admission, lazy slate re-hydration from the kv-store, "
                 "hinted-handoff drain — loss bounded by the flush interval")
    report.table(
        ["metric", "failure-free", "crash+recover"],
        [["counted", free_counted, chaos_counted],
         ["recoveries", 0, rob.recoveries],
         ["recovery broadcasts", 0,
          chaos_report.master_stats["recovery_broadcasts"]],
         ["rehydrated slates", 0, rob.rehydrated_slates],
         ["hints stored/delivered", "0/0",
          f"{rob.hints_stored}/{rob.hints_delivered}"],
         ["hints pending at end", 0, rob.hints_pending],
         ["events lost", free_report.counters.lost_failure,
          chaos_report.counters.lost_failure]])
    assert rob.recoveries == 1
    assert rob.rehydrated_slates > 0
    assert rob.hints_pending == 0
    assert "m001" in runtime._machine_ring.live_members
    # Documented loss bound: one flush interval of the dead machine's
    # update share, plus events queued/in-flight at the crash.
    loss_bound = rate * flush + chaos_report.counters.lost_failure + 64
    assert chaos_counted >= free_counted - loss_bound
    report.outcome(
        f"machine rejoined and re-hydrated {rob.rehydrated_slates} slates; "
        f"count {chaos_counted}/{free_counted} within the "
        f"{int(loss_bound)}-event flush-interval bound; "
        f"{rob.hints_delivered} hints drained, 0 pending")


def test_e6e_delivery_semantics(benchmark, experiment):
    """Beyond the paper: the same crash+recover schedule under all three
    delivery modes. At-most-once (the paper's choice) under-counts,
    at-least-once replay over-counts, and effectively-once — replay plus
    per-slate dedup watermarks checkpointed at epoch barriers — lands
    exactly on the failure-free totals."""
    rate, duration, flush = 2000.0, 3.0, 0.2

    def run():
        def simulate(schedule, **delivery_kwargs):
            # Exactness needs per-key FIFO application, hence the
            # single-choice dispatcher for every mode (see
            # tests/sim/test_effectively_once.py).
            config = SimConfig(flush_policy=FlushPolicy.every(flush),
                               queue_capacity=100_000, two_choice=False,
                               kill_kv_on_machine_failure=True,
                               **delivery_kwargs)
            source = constant_rate("S1", rate_per_s=rate,
                                   duration_s=duration,
                                   key_fn=lambda i: f"k{i % 64}")
            runtime = SimRuntime(build_count_app(),
                                 ClusterSpec.uniform(4, cores=4), config,
                                 [source], failures=schedule)
            sim_report = runtime.run(duration + 3.0)
            counted = sum(v["count"]
                          for v in runtime.slates_of("U1").values())
            return sim_report, counted

        chaos = lambda: FaultSchedule(seed=42).crash(1.05, "m001",
                                                     recover_at=2.0)
        _, free_counted = simulate(FaultSchedule())
        _, amo_counted = simulate(chaos())
        _, alo_counted = simulate(
            chaos(), delivery_semantics="at-least-once",
            replay_horizon_s=duration + 3.0)
        eo_report, eo_counted = simulate(
            chaos(), delivery_semantics="effectively-once",
            checkpoint_epoch_s=0.5)
        return (free_counted, amo_counted, alo_counted, eo_counted,
                eo_report)

    free_counted, amo_counted, alo_counted, eo_counted, eo_report = \
        benchmark.pedantic(run, rounds=1, iterations=1)
    rob = eo_report.robustness
    report = experiment("E6e-delivery-semantics")
    report.claim("effectively-once = at-least-once replay + idempotent "
                 "application via per-slate dedup watermarks persisted "
                 "with the slate and checkpointed at epoch barriers; on "
                 "a crash+recover it reproduces the failure-free counts "
                 "exactly")
    report.table(
        ["delivery mode", "counted", "vs failure-free"],
        [["(failure-free)", free_counted, "—"],
         ["at-most-once", amo_counted, amo_counted - free_counted],
         ["at-least-once", alo_counted, alo_counted - free_counted],
         ["effectively-once", eo_counted, eo_counted - free_counted]])
    assert amo_counted < free_counted          # loses in-flight events
    assert alo_counted > free_counted          # replays without dedup
    assert eo_counted == free_counted          # exact
    assert rob.replay_deduped > 0
    assert rob.replay_reapplied > 0
    assert rob.checkpoint_epochs > 0
    report.outcome(
        f"at-most-once {amo_counted - free_counted:+d}, at-least-once "
        f"{alo_counted - free_counted:+d}, effectively-once exact at "
        f"{eo_counted}; {rob.replay_deduped} replays deduped, "
        f"{rob.replay_reapplied} lost effects reapplied across "
        f"{rob.checkpoint_epochs} checkpoint epochs")
