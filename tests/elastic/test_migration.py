"""Crash-safe live slate migration: exactness, chaos matrix, ablation."""

import pytest

from repro.cluster import ClusterSpec
from repro.elastic import MIGRATION_PHASES, MigrationConfig
from repro.errors import ConfigurationError
from repro.faults import FaultSchedule
from repro.sim import SimConfig, SimRuntime, constant_rate
from repro.slates.manager import FlushPolicy
from tests.conftest import build_count_app

RATE = 1200.0
DURATION = 2.0
EXPECTED = int(RATE * DURATION)


def migration_config(**kwargs):
    kwargs.setdefault("flush_policy", FlushPolicy.every(0.2))
    kwargs.setdefault("queue_capacity", 100_000)
    kwargs.setdefault("kill_kv_on_machine_failure", True)
    kwargs.setdefault("delivery_semantics", "effectively-once")
    kwargs.setdefault("migration", MigrationConfig())
    return SimConfig(**kwargs)


def run_migration(kind="retire", chaos=None, config=None, horizon=6.0):
    source = constant_rate("S1", rate_per_s=RATE, duration_s=DURATION,
                           key_fn=lambda i: f"k{i % 64}")
    runtime = SimRuntime(build_count_app(), ClusterSpec.uniform(4, cores=4),
                         config or migration_config(), [source],
                         failures=chaos or FaultSchedule(seed=7))
    if kind == "retire":
        runtime.schedule_remove_machine(1.0, "m001")
    else:
        runtime.schedule_add_machine(1.0, "e901")
    report = runtime.run(horizon)
    return runtime, report


def counted(runtime):
    return sum(v["count"] for v in runtime.slates_of("U1").values())


class TestKnobValidation:
    def test_migration_requires_muppet2(self):
        with pytest.raises(ConfigurationError, match="muppet2"):
            SimConfig(engine="muppet1", migration=MigrationConfig())

    def test_autoscale_requires_muppet2(self):
        from repro.elastic import AutoscalerConfig

        with pytest.raises(ConfigurationError, match="muppet2"):
            SimConfig(engine="muppet1", autoscale=AutoscalerConfig())

    @pytest.mark.parametrize("kwargs", [{"delta_round_s": 0.0}])
    def test_invalid_migration_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            MigrationConfig(**kwargs)

    def test_at_migration_rejects_unknown_phase(self):
        with pytest.raises(ConfigurationError, match="phase"):
            FaultSchedule().at_migration("warmup")

    def test_at_migration_rejects_unknown_target(self):
        with pytest.raises(ConfigurationError, match="target"):
            FaultSchedule().at_migration("cutover", target="bystander")

    def test_phase_rejected_on_other_fault_kinds(self):
        from repro.faults.schedule import FaultEvent

        with pytest.raises(ConfigurationError, match="migration_crash"):
            FaultEvent("crash", 1.0, machine="m001", phase="cutover")

    def test_triggers_excluded_from_point_events(self):
        schedule = (FaultSchedule()
                    .crash(1.0, "m001")
                    .at_migration("ack", target="receiver"))
        assert len(schedule.migration_triggers()) == 1
        assert all(e.kind == "crash" for e in schedule.point_events())


class TestFaultFreeMigration:
    def test_retire_is_exact_and_incremental(self):
        runtime, report = run_migration("retire")
        assert counted(runtime) == EXPECTED
        assert report.counters.lost_total() == 0
        mc = runtime._migration.counters
        assert mc.completed == 1 and mc.aborted == 0
        assert mc.snapshot_slates > 0 and mc.snapshot_bytes > 0
        assert mc.handoff_slates > 0
        assert mc.incremental_bytes > 0 and mc.full_barrier_bytes == 0
        assert mc.journal_readdressed > 0
        assert runtime.machines["m001"].retired

    def test_join_is_exact_and_takes_traffic(self):
        runtime, report = run_migration("join")
        assert counted(runtime) == EXPECTED
        assert report.counters.lost_total() == 0
        assert runtime._migration.counters.completed == 1
        joined = runtime.machines["e901"]
        assert not joined.retired
        assert sum(w.queue.stats.accepted for w in joined.workers) > 0

    def test_full_rehydration_ablation_moves_more_bytes(self):
        incremental, _ = run_migration("retire")
        full, _ = run_migration(
            "retire",
            config=migration_config(
                migration=MigrationConfig(full_rehydration=True)))
        mc_inc = incremental._migration.counters
        mc_full = full._migration.counters
        assert mc_full.completed == 1
        assert mc_full.full_barrier_slates > 0
        assert mc_full.full_barrier_bytes > 0 and mc_full.incremental_bytes == 0
        # The tentpole claim: the incremental handoff moves strictly
        # fewer bytes than a full flush-barrier rehydration.
        assert mc_inc.incremental_bytes < mc_full.full_barrier_bytes
        assert counted(full) == EXPECTED

    def test_read_through_sees_slates_dropped_after_traffic(self):
        # Full rehydration drops the donor's copies and relies on lazy
        # kv reads at the receiver. Migrate *after* the source dries up
        # and the moved keys are never touched again: they live only in
        # the store, invisible to a cache-only scan but not lost.
        source = constant_rate("S1", rate_per_s=RATE, duration_s=DURATION,
                               key_fn=lambda i: f"k{i % 64}")
        runtime = SimRuntime(
            build_count_app(), ClusterSpec.uniform(4, cores=4),
            migration_config(
                migration=MigrationConfig(full_rehydration=True)),
            [source])
        runtime.schedule_remove_machine(3.0, "m001")
        runtime.run(6.0)
        assert runtime._migration.counters.completed == 1
        resident = sum(v["count"]
                       for v in runtime.slates_of("U1").values())
        through = sum(
            v["count"]
            for v in runtime.slates_of("U1", read_through=True).values())
        assert resident < EXPECTED
        assert through == EXPECTED

    def test_scale_requests_queue_behind_active_migration(self):
        source = constant_rate("S1", rate_per_s=RATE, duration_s=DURATION,
                               key_fn=lambda i: f"k{i % 64}")
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(4, cores=4),
                             migration_config(), [source])
        runtime.schedule_add_machine(1.0, "e901")
        runtime.schedule_remove_machine(1.001, "m001")
        runtime.run(6.0)
        mc = runtime._migration.counters
        assert mc.completed == 2
        assert counted(runtime) == EXPECTED
        assert runtime.machines["m001"].retired
        assert not runtime.machines["e901"].retired


class TestChaosMatrix:
    """Seeded crash of each participant at every phase: the run must
    abort-or-complete with zero lost and zero duplicated updates."""

    @pytest.mark.parametrize("phase", MIGRATION_PHASES)
    @pytest.mark.parametrize("target", ["donor", "receiver", "master"])
    def test_retire_crash_is_exact(self, phase, target):
        chaos = FaultSchedule(seed=7).at_migration(phase, target=target)
        runtime, _ = run_migration("retire", chaos=chaos)
        assert counted(runtime) == EXPECTED
        mc = runtime._migration.counters
        assert mc.started == 1
        assert mc.completed + mc.aborted == 1
        if target == "master":
            # The coordinator pauses and re-drives from the ledger.
            assert mc.resumed >= 1 and mc.completed == 1

    @pytest.mark.parametrize("phase", MIGRATION_PHASES)
    @pytest.mark.parametrize("target", ["donor", "receiver", "master"])
    def test_join_crash_is_exact(self, phase, target):
        chaos = FaultSchedule(seed=7).at_migration(phase, target=target)
        runtime, _ = run_migration("join", chaos=chaos)
        assert counted(runtime) == EXPECTED

    def test_post_cutover_donor_crash_keeps_receiver_state(self):
        # Donor dies at release: cutover already happened, so the
        # migration completes and the donor's loss heals via replay.
        chaos = FaultSchedule(seed=7).at_migration("release",
                                                   target="donor")
        runtime, _ = run_migration("retire", chaos=chaos)
        assert runtime._migration.counters.completed == 1
        assert counted(runtime) == EXPECTED


class TestDeterminism:
    def chaos(self):
        return FaultSchedule(seed=7).at_migration("cutover",
                                                  target="master")

    def test_three_runs_byte_identical(self):
        reports = []
        slates = []
        for _ in range(3):
            runtime, report = run_migration("retire", chaos=self.chaos())
            reports.append(report.counter_report())
            slates.append(runtime.slates_of("U1"))
        assert reports[0] == reports[1] == reports[2]
        assert slates[0] == slates[1] == slates[2]

    def test_batched_run_stays_exact(self):
        config = migration_config(batch_max_events=16,
                                  batch_linger_s=0.005)
        runtime, _ = run_migration("retire", chaos=self.chaos(),
                                   config=config)
        assert counted(runtime) == EXPECTED


class TestReplayPinRegression:
    """A crash replay burst must not be overtaken by fresh same-key
    events spilling to the second two-choice worker: the fresh event
    would advance the slate watermark past a still-queued replay whose
    effect died with the crash, and dedup would wrongly skip it."""

    def test_unrecovered_crash_two_hop_is_exact(self):
        source = constant_rate("S1", rate_per_s=2000.0, duration_s=3.0,
                               key_fn=lambda i: f"k{i % 64}")
        chaos = FaultSchedule(seed=42).crash(1.05, "m001")
        config = SimConfig(flush_policy=FlushPolicy.every(0.2),
                           queue_capacity=100_000,
                           kill_kv_on_machine_failure=True,
                           delivery_semantics="effectively-once")
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(4, cores=4),
                             config, [source], failures=chaos)
        runtime.run(8.0)
        assert counted(runtime) == 6000

    def test_pins_drain_to_empty(self):
        chaos = FaultSchedule(seed=7).at_migration("ack", target="donor")
        runtime, _ = run_migration("retire", chaos=chaos)
        for machine in runtime.machines.values():
            assert machine.replay_pins == {}
