"""Event replay journal (the Section 4.3 future-work extension)."""

import pytest

from repro.cluster import ClusterSpec
from repro.errors import ConfigurationError
from repro.muppet import replay as replay_module
from repro.muppet.replay import ReplayJournal
from repro.sim import SimConfig, SimRuntime, constant_rate
from repro.slates.manager import FlushPolicy
from tests.conftest import build_count_app


class TestJournal:
    def test_record_and_take(self):
        journal = ReplayJournal(horizon_s=10.0)
        journal.record("m1", "e1", now=0.0)
        journal.record("m2", "e2", now=1.0)
        journal.record("m1", "e3", now=2.0)
        assert journal.take_for("m1", now=3.0) == ["e1", "e3"]
        assert len(journal) == 1  # e2 remains

    def test_horizon_prunes_old_entries(self):
        journal = ReplayJournal(horizon_s=1.0)
        journal.record("m1", "old", now=0.0)
        journal.record("m1", "new", now=5.0)
        assert journal.take_for("m1", now=5.5) == ["new"]
        assert journal.stats.pruned == 1

    def test_max_entries_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(replay_module, "MAX_ENTRIES", 5)
        journal = ReplayJournal(horizon_s=100.0)
        for i in range(10):
            journal.record("m1", f"e{i}", now=float(i) * 0.01)
        assert len(journal) == 5
        assert journal.take_for("m1", now=1.0) == \
            [f"e{i}" for i in range(5, 10)]

    def test_take_is_destructive(self):
        journal = ReplayJournal(horizon_s=10.0)
        journal.record("m1", "e", now=0.0)
        journal.take_for("m1", now=0.1)
        assert journal.take_for("m1", now=0.2) == []

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ReplayJournal(horizon_s=0.0)


class TestReplayInSim:
    def run_failure(self, replay_horizon):
        source = constant_rate("S1", rate_per_s=2000, duration_s=2.0,
                               key_fn=lambda i: f"k{i % 64}")
        runtime = SimRuntime(
            build_count_app(), ClusterSpec.uniform(4, cores=4),
            SimConfig(delivery_semantics=("at-most-once"
                                          if replay_horizon is None
                                          else "at-least-once"),
                      replay_horizon_s=replay_horizon,
                      flush_policy=FlushPolicy.write_through()),
            [source], failures=[(1.0, "m001")])
        report = runtime.run(10.0)
        counted = sum(v["count"]
                      for v in runtime.slates_of("U1").values())
        return runtime, report, counted

    def test_replay_recovers_in_flight_events(self):
        """With write-through slates + replay, a machine failure costs
        (nearly) nothing: at-least-once within the horizon."""
        _, no_replay_report, counted_without = self.run_failure(None)
        runtime, replay_report, counted_with = self.run_failure(0.5)
        assert counted_with >= counted_without
        # Write-through means no dirty-slate loss; replay covers the
        # in-flight/queued events: the count reaches (at least) 4000.
        assert counted_with >= 4000
        assert runtime.counters_replayed > 0

    def test_replay_off_by_default(self):
        runtime, _, __ = self.run_failure(None)
        assert runtime.replay_journal is None

    def test_replayed_events_flow_through_rerouted_ring(self):
        """Replayed events cannot go back to the machine that died; they
        must re-enter through the *post-broadcast* ring and land on
        survivors. Completeness with the original owner still dead is
        the proof."""
        runtime, _, counted = self.run_failure(0.5)
        assert runtime.counters_replayed > 0
        assert "m001" not in runtime._machine_ring.live_members
        assert not runtime.machines["m001"].alive
        # Every key — including the dead machine's — reached full count
        # via the rerouted ring (write-through: no dirty-slate loss).
        assert counted >= 4000
        per_key = runtime.slates_of("U1")
        assert len(per_key) == 64

    def test_overcount_bounded_by_replayed_volume(self):
        """The journal is at-least-once: an event counted just before the
        crash may be counted again on replay. The over-count can never
        exceed what the journal actually replayed (the in-flight volume
        within the horizon)."""
        runtime, _, counted = self.run_failure(0.5)
        offered = 4000
        overcount = counted - offered
        assert 0 <= overcount <= runtime.counters_replayed
        # And the journal can't hold more than a horizon of the stream.
        assert runtime.counters_replayed <= 2000 * 0.5 + 1

    def test_journal_prunes_to_horizon_in_sim(self):
        """The sim's journal never retains more than one horizon of
        recorded sends — bounded memory is the feature's contract."""
        runtime, _, __ = self.run_failure(0.2)
        journal = runtime.replay_journal
        assert journal is not None
        assert journal.stats.pruned > 0
        # Whatever remains spans at most one horizon (pruned on record).
        if len(journal) > 1:
            sent_times = [sent_at for sent_at, _, __ in journal._entries]
            assert max(sent_times) - min(sent_times) <= 0.2 + 1e-9


class TestElasticMembership:
    def test_machine_joins_without_loss(self):
        """Section 5 'Changing the Number of Machines on the Fly',
        via the rebalance-barrier design."""
        source = constant_rate("S1", rate_per_s=2000, duration_s=2.0,
                               key_fn=lambda i: f"k{i % 64}")
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(2, cores=4),
                             SimConfig(), [source])
        runtime.schedule_add_machine(1.0, "m_new", cores=4)
        report = runtime.run(10.0)
        assert "m_new" in runtime.machines
        counted = sum(v["count"]
                      for v in runtime.slates_of("U1").values())
        assert counted == 4000
        assert report.counters.lost_total() == 0
        # The new machine actually took over some keys.
        new_machine = runtime.machines["m_new"]
        accepted = sum(w.queue.stats.accepted
                       for w in new_machine.workers)
        assert accepted > 0

    def test_join_is_idempotent(self):
        source = constant_rate("S1", rate_per_s=500, duration_s=1.0,
                               key_fn=lambda i: f"k{i % 8}")
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(2, cores=2),
                             SimConfig(), [source])
        runtime.schedule_add_machine(0.5, "m_new")
        runtime.schedule_add_machine(0.6, "m_new")
        runtime.run(5.0)
        assert sorted(runtime.machines) == ["m000", "m001", "m_new"]

    def test_muppet1_join(self):
        from repro.sim import ENGINE_MUPPET1

        source = constant_rate("S1", rate_per_s=1000, duration_s=1.0,
                               key_fn=lambda i: f"k{i % 32}")
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(2, cores=4),
                             SimConfig(engine=ENGINE_MUPPET1), [source])
        runtime.schedule_add_machine(0.5, "m_new", cores=4)
        report = runtime.run(6.0)
        counted = sum(v["count"]
                      for v in runtime.slates_of("U1").values())
        assert counted == 1000
        assert report.counters.lost_total() == 0


class TestEpochPrunedJournal:
    """The effectively-once configuration: no time horizon, pruned only
    at checkpoint-epoch barriers via prune_before()."""

    def test_no_time_pruning_without_horizon(self):
        journal = ReplayJournal.epoch_pruned()
        journal.record("m1", "a", now=0.0)
        journal.record("m1", "b", now=1000.0)   # far past any horizon
        assert len(journal) == 2
        assert journal.stats.pruned == 0

    def test_prune_before_drops_only_older_entries(self):
        journal = ReplayJournal.epoch_pruned()
        for t in (0.0, 1.0, 2.0, 3.0):
            journal.record("m1", f"e{t}", now=t)
        dropped = journal.prune_before(2.0)
        assert dropped == 2
        assert journal.stats.pruned == 2
        assert journal.take_for("m1", now=3.0) == ["e2.0", "e3.0"]

    def test_prune_before_on_empty_is_zero(self):
        assert ReplayJournal.epoch_pruned().prune_before(10.0) == 0

    def test_max_entries_still_bounds_memory(self, monkeypatch):
        monkeypatch.setattr(replay_module, "MAX_ENTRIES", 3)
        journal = ReplayJournal.epoch_pruned()
        for i in range(5):
            journal.record("m1", i, now=float(i))
        assert len(journal) == 3
        assert journal.stats.pruned == 2

    def test_deduped_counter_starts_at_zero(self):
        assert ReplayJournal.epoch_pruned().stats.deduped == 0

    def test_horizon_none_accepted_zero_rejected(self):
        assert ReplayJournal(horizon_s=None).horizon_s is None
        with pytest.raises(ConfigurationError):
            ReplayJournal(horizon_s=0.0)


class TestMigrationHolds:
    """The prune-too-early window: entries a live handoff still needs
    must survive checkpoint-epoch prunes that fire mid-migration."""

    def test_hold_blocks_prune_before(self):
        journal = ReplayJournal.epoch_pruned()
        for t in (0.0, 1.0, 2.0, 3.0):
            journal.record("m1", f"e{t}", now=t)
        journal.hold("migration-1", since_ts=1.0)
        # A checkpoint barrier completing at t=3 would normally drop
        # everything before it; the hold caps the cutoff at 1.0.
        assert journal.prune_before(3.0) == 1
        assert journal.take_for("m1", now=3.0) == ["e1.0", "e2.0", "e3.0"]

    def test_release_reopens_pruning(self):
        journal = ReplayJournal.epoch_pruned()
        for t in (0.0, 1.0, 2.0):
            journal.record("m1", f"e{t}", now=t)
        journal.hold("migration-1", since_ts=0.0)
        assert journal.prune_before(10.0) == 0
        journal.release("migration-1")
        assert journal.prune_before(10.0) == 3

    def test_hold_clamps_time_horizon_too(self):
        journal = ReplayJournal(horizon_s=1.0)
        journal.record("m1", "old", now=0.0)
        journal.hold("migration-1", since_ts=0.0)
        journal.record("m1", "new", now=5.0)
        assert journal.take_for("m1", now=5.5) == ["old", "new"]

    def test_rehold_keeps_earlier_timestamp(self):
        journal = ReplayJournal.epoch_pruned()
        journal.record("m1", "a", now=0.0)
        journal.hold("migration-1", since_ts=0.0)
        journal.hold("migration-1", since_ts=5.0)  # resume re-drives hold
        assert journal.prune_before(10.0) == 0

    def test_release_unknown_token_is_idempotent(self):
        ReplayJournal.epoch_pruned().release("never-held")

    def test_readdress_rewrites_and_counts(self):
        journal = ReplayJournal.epoch_pruned()
        journal.record("m1", "a", now=0.0)
        journal.record("m2", "b", now=1.0)
        changed = journal.readdress(
            lambda dest, payload: "m9" if dest == "m1" else None)
        assert changed == 1
        assert journal.stats.readdressed == 1
        assert journal.take_for("m9", now=2.0) == ["a"]
        assert journal.take_for("m2", now=2.0) == ["b"]
