"""Chaos tests: the full failure-and-recovery path under fault injection.

These drive the acceptance criteria of the recovery subsystem:

* A machine killed mid-run and revived rejoins the ring, re-hydrates its
  slates lazily from the replicated kv-store, and hinted handoff drains
  to zero — with event loss bounded by the flush interval.
* Two runs of the same seeded :class:`FaultSchedule` produce
  byte-identical counter reports, probabilistic rules included.
* A transient kv-node outage produces nonzero retry/backoff counters and
  zero ``StoreError`` escapes into operator code.
"""

import pytest

from repro.cluster import ClusterSpec
from repro.faults import FaultEvent, FaultSchedule
from repro.kvstore.api import ConsistencyLevel
from repro.sim import SimConfig, SimRuntime, constant_rate
from repro.slates.manager import FlushPolicy
from tests.conftest import build_count_app


RATE, DURATION, FLUSH, KEYS = 2000.0, 3.0, 0.2, 64


def run_chaos(schedule, horizon=6.0, consistency=None, **config_kwargs):
    config_kwargs.setdefault("flush_policy", FlushPolicy.every(FLUSH))
    config_kwargs.setdefault("queue_capacity", 100_000)
    config = SimConfig(**config_kwargs)
    source = constant_rate("S1", rate_per_s=RATE, duration_s=DURATION,
                           key_fn=lambda i: f"k{i % KEYS}")
    runtime = SimRuntime(build_count_app(), ClusterSpec.uniform(4, cores=4),
                         config, [source], failures=schedule)
    if consistency is not None:
        # The engine reads and writes slates at ONE; a two-node outage
        # only fails an operation that needs a quorum.
        for machine in runtime.machines.values():
            machine.central_mgr.consistency = consistency
    report = runtime.run(horizon)
    return runtime, report


def total_counted(runtime):
    return sum(v["count"] for v in runtime.slates_of("U1").values())


class TestCrashAndRecover:
    """The headline acceptance test: kill a machine mid-run, revive it."""

    @pytest.fixture(scope="class")
    def recovered(self):
        schedule = FaultSchedule(seed=42).crash(1.05, "m001",
                                                recover_at=2.0)
        runtime, report = run_chaos(schedule,
                                    kill_kv_on_machine_failure=True)
        baseline_runtime, baseline_report = run_chaos(
            FaultSchedule(), kill_kv_on_machine_failure=True)
        return runtime, report, baseline_runtime, baseline_report

    def test_machine_rejoins_the_ring(self, recovered):
        runtime, report, _, __ = recovered
        machine = runtime.machines["m001"]
        assert machine.alive
        assert "m001" in runtime._machine_ring.live_members
        assert report.robustness.recoveries == 1
        # Post-recovery, the ring actually routes keys to it again.
        owners = {runtime._machine_ring.lookup(f"k{i}")
                  for i in range(KEYS)}
        assert "m001" in owners

    def test_recovery_broadcast_mirrors_failure_broadcast(self, recovered):
        _, report, __, ___ = recovered
        assert report.master_stats["broadcasts_sent"] == 1
        assert report.master_stats["recovery_reports"] == 1
        assert report.master_stats["recovery_broadcasts"] == 1

    def test_slates_rehydrate_from_the_kv_store(self, recovered):
        runtime, report, _, __ = recovered
        assert report.robustness.rehydrated_slates > 0
        # The revived machine serves live slates again.
        machine = runtime.machines["m001"]
        managers = ([machine.central_mgr] if machine.central_mgr
                    else [w.mgr for w in machine.workers])
        assert sum(len(m.cache) for m in managers if m) > 0

    def test_hinted_handoff_drains_to_zero(self, recovered):
        runtime, report, _, __ = recovered
        assert report.robustness.hints_stored > 0
        assert report.robustness.hints_delivered == \
            report.robustness.hints_stored
        assert report.robustness.hints_pending == 0
        assert runtime.store.pending_hints() == 0

    def test_loss_bounded_by_flush_interval(self, recovered):
        runtime, report, baseline_runtime, _ = recovered
        counted = total_counted(runtime)
        baseline = total_counted(baseline_runtime)
        # Documented bound: unflushed updates accumulated over at most one
        # flush interval on the dead machine, plus events queued/in-flight
        # at the crash (counted as lost_failure), plus one per-key
        # in-progress update.
        bound = RATE * FLUSH + report.counters.lost_failure + KEYS
        assert counted <= baseline  # at-most-once: never over-counts
        assert counted >= baseline - bound

    def test_no_overcount_per_key(self, recovered):
        runtime, _, baseline_runtime, __ = recovered
        baseline = baseline_runtime.slates_of("U1")
        for key, slate in runtime.slates_of("U1").items():
            assert slate["count"] <= baseline[key]["count"]


class TestDeterminism:
    """Same seeded schedule, same workload → byte-identical reports."""

    def test_crash_recover_reports_identical(self):
        def one_run():
            schedule = FaultSchedule(seed=42).crash(1.05, "m001",
                                                    recover_at=2.0)
            _, report = run_chaos(schedule,
                                  kill_kv_on_machine_failure=True)
            return report.counter_report()

        assert one_run() == one_run()

    def test_probabilistic_rules_identical(self):
        """drop/delay/partition draw from the schedule's seeded RNG, so
        even coin flips and jitter replay identically."""
        def one_run():
            schedule = (FaultSchedule(seed=9)
                        .drop(0.5, until=1.5, probability=0.02)
                        .add(FaultEvent("delay", 1.0, until=2.0,
                                        machine="m002", extra_delay_s=0.002,
                                        jitter_s=0.003))
                        .partition(1.8, ["m003"], until=2.2))
            _, report = run_chaos(schedule)
            return report.counter_report()

        first = one_run()
        assert first == one_run()
        # The rules actually fired (the report is not vacuously equal).
        assert "dropped_injected=0\n" not in first
        assert "delayed_injected=0\n" not in first

    def test_different_seed_diverges(self):
        def one_run(seed):
            schedule = FaultSchedule(seed=seed).drop(0.5, until=2.5,
                                                     probability=0.05)
            _, report = run_chaos(schedule)
            return report.counter_report()

        assert one_run(1) != one_run(2)


class TestKvOutageRetry:
    """Transient kv outages are absorbed by retry/backoff/fail-open."""

    def test_retries_backoff_and_no_store_error_escapes(self):
        # Two of four replicas down at QUORUM: flushes fail transiently,
        # the manager retries with backoff, then fails open; no
        # StoreError ever reaches operator code (the run would raise).
        schedule = (FaultSchedule()
                    .kv_outage(1.0, "m001", until=1.8)
                    .kv_outage(1.0, "m002", until=1.8))
        runtime, report = run_chaos(schedule,
                                    consistency=ConsistencyLevel.QUORUM)
        rob = report.robustness
        assert rob.kv_retries > 0
        assert rob.kv_backoff_s > 0.0
        assert rob.fail_open_writes > 0
        # The outage ended: hints drained, stream completed undropped.
        assert rob.hints_pending == 0
        assert total_counted(runtime) == int(RATE * DURATION)

    def test_fail_open_write_leaves_slate_dirty_for_next_flush(self):
        schedule = (FaultSchedule()
                    .kv_outage(1.0, "m001", until=1.8)
                    .kv_outage(1.0, "m002", until=1.8))
        runtime, report = run_chaos(schedule,
                                    consistency=ConsistencyLevel.QUORUM)
        # After the outage, later flush cycles retried the dirty slates:
        # nothing is left dirty at shutdown (final flush succeeds).
        for machine in runtime.machines.values():
            managers = ([machine.central_mgr] if machine.central_mgr
                        else [w.mgr for w in machine.workers])
            for mgr in managers:
                if mgr is not None:
                    assert sum(1 for _ in mgr.cache.dirty_slates()) == 0


class TestGrayFailure:
    def test_slow_node_degrades_latency_and_is_counted(self):
        schedule = FaultSchedule().slow(0.5, "m001", until=2.5,
                                        cpu_factor=8.0)
        _, healthy = run_chaos(FaultSchedule())
        _, grayed = run_chaos(schedule)
        assert grayed.robustness.gray_slow_s > 0.0
        assert grayed.latency.p99 > healthy.latency.p99
        # Gray failure is the failure nobody detects: no broadcast.
        assert grayed.master_stats["broadcasts_sent"] == 0

    def test_partition_losses_counted_separately(self):
        schedule = FaultSchedule().partition(1.0, ["m001"], until=1.5)
        runtime, report = run_chaos(schedule)
        assert report.robustness.lost_partition > 0
        # Partition loss is injected loss, not detected machine failure.
        assert total_counted(runtime) < int(RATE * DURATION)


class TestLegacyKillListCompat:
    def test_plain_kill_list_still_works(self):
        runtime, report = run_chaos([(1.0, "m001")])
        assert report.master_stats["broadcasts_sent"] == 1
        assert report.counters.lost_failure > 0
        assert [(e.at, e.machine)
                for e in runtime.fault_schedule] == [(1.0, "m001")]
