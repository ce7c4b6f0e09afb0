"""Effectively-once delivery: exact recovery via dedup + epoch checkpoints.

The acceptance criteria of the third delivery mode:

* A machine crash + recover under ``delivery_semantics="effectively-once"``
  yields *exactly* the failure-free totals — at-most-once under-counts and
  at-least-once over-counts on the same schedule.
* Two seeded runs are byte-identical (counter report and final slates),
  with data-plane batching off and on.
* The checkpoint-epoch barrier keeps the un-horizoned journal bounded.
* The knob defaults off: plain configs build no journal and behave as
  before.
"""

import pytest

from repro.cluster import ClusterSpec
from repro.core import Application, Mapper, Updater
from repro.core.event import derive_origin
from repro.errors import ConfigurationError, SimulationError
from repro.faults import FaultSchedule
from repro.muppet.queues import OverflowPolicy, SourceThrottle
from repro.sim import SimConfig, SimRuntime, constant_rate
from repro.sim import runtime as runtime_module
from repro.slates.manager import FlushPolicy
from tests.conftest import CountingUpdater, build_count_app

RATE, DURATION, FLUSH, KEYS = 2000.0, 3.0, 0.2, 64

#: Exactness needs per-key FIFO application, so these tests run the
#: single-choice dispatcher. Two-choice lets two workers apply one key's
#: events out of order, which the watermark rule cannot distinguish from
#: duplication — the documented residual hazard of effectively-once on
#: Muppet 2.0's concurrent dispatch.
EXACT = dict(delivery_semantics="effectively-once", checkpoint_epoch_s=0.5,
             two_choice=False)


def crash_schedule():
    return FaultSchedule(seed=42).crash(1.05, "m001", recover_at=2.0)


def run_sim(schedule, horizon=6.0, **config_kwargs):
    config_kwargs.setdefault("flush_policy", FlushPolicy.every(FLUSH))
    config_kwargs.setdefault("queue_capacity", 100_000)
    config = SimConfig(**config_kwargs)
    source = constant_rate("S1", rate_per_s=RATE, duration_s=DURATION,
                           key_fn=lambda i: f"k{i % KEYS}")
    runtime = SimRuntime(build_count_app(), ClusterSpec.uniform(4, cores=4),
                         config, [source], failures=schedule)
    report = runtime.run(horizon)
    return runtime, report


def total_counted(runtime):
    return sum(v["count"] for v in runtime.slates_of("U1").values())


class TestConfigSurface:
    def test_default_is_at_most_once_with_no_journal(self):
        runtime, _ = run_sim(FaultSchedule(), horizon=0.1)
        assert runtime.config.delivery_semantics == "at-most-once"
        assert runtime.replay_journal is None

    def test_at_least_once_defaults_its_horizon(self):
        config = SimConfig(delivery_semantics="at-least-once")
        assert config.replay_horizon_s == 0.25

    def test_unknown_semantics_rejected(self):
        with pytest.raises(ConfigurationError, match="delivery_semantics"):
            SimConfig(delivery_semantics="exactly-once-honest")

    def test_effectively_once_rejects_time_horizon(self):
        with pytest.raises(ConfigurationError, match="checkpoint"):
            SimConfig(delivery_semantics="effectively-once",
                      replay_horizon_s=0.25)

    def test_nonpositive_epoch_rejected(self):
        with pytest.raises(ConfigurationError, match="checkpoint_epoch_s"):
            SimConfig(delivery_semantics="effectively-once",
                      checkpoint_epoch_s=0.0)

    def test_effectively_once_builds_epoch_pruned_journal(self):
        runtime, _ = run_sim(FaultSchedule(), horizon=0.1, **EXACT)
        assert runtime.replay_journal is not None
        assert runtime.replay_journal.horizon_s is None


class TestExactRecovery:
    """The headline: crash + recover, exact counts."""

    @pytest.fixture(scope="class")
    def outcomes(self):
        runtime_ff, _ = run_sim(FaultSchedule(), **EXACT)
        runtime_eo, report_eo = run_sim(crash_schedule(), **EXACT)
        runtime_amo, _ = run_sim(crash_schedule(), two_choice=False)
        runtime_alo, _ = run_sim(crash_schedule(), two_choice=False,
                                 delivery_semantics="at-least-once",
                                 replay_horizon_s=6.0)
        return (total_counted(runtime_ff), total_counted(runtime_eo),
                total_counted(runtime_amo), total_counted(runtime_alo),
                report_eo)

    def test_effectively_once_is_exact(self, outcomes):
        failure_free, effectively_once, _, __, ___ = outcomes
        assert effectively_once == failure_free

    def test_at_most_once_undercounts(self, outcomes):
        failure_free, _, at_most_once, __, ___ = outcomes
        assert at_most_once < failure_free

    def test_at_least_once_overcounts(self, outcomes):
        failure_free, _, __, at_least_once, ___ = outcomes
        assert at_least_once > failure_free

    def test_dedup_actually_fired(self, outcomes):
        *_, report = outcomes
        assert report.robustness.replay_deduped > 0
        assert report.replay.deduped == report.robustness.replay_deduped

    def test_lost_effects_were_reapplied(self, outcomes):
        *_, report = outcomes
        assert report.robustness.replay_reapplied > 0

    def test_exactness_survives_batching(self):
        runtime_ff, _ = run_sim(FaultSchedule(), batch_max_events=16,
                                batch_linger_s=0.002, **EXACT)
        runtime_eo, _ = run_sim(crash_schedule(), batch_max_events=16,
                                batch_linger_s=0.002, **EXACT)
        assert total_counted(runtime_eo) == total_counted(runtime_ff)

    def test_exactness_survives_two_crashes(self):
        schedule = (FaultSchedule(seed=7)
                    .crash(0.9, "m002", recover_at=1.8)
                    .crash(2.2, "m003", recover_at=3.1))
        runtime_ff, _ = run_sim(FaultSchedule(), **EXACT)
        runtime_eo, _ = run_sim(schedule, **EXACT)
        assert total_counted(runtime_eo) == total_counted(runtime_ff)

    def test_watermarks_never_leak_into_slate_views(self):
        runtime, _ = run_sim(crash_schedule(), **EXACT)
        for fields in runtime.slates_of("U1").values():
            assert set(fields) == {"count"}
        assert set(runtime.slate("U1", "k0")) == {"count"}


class TestDeterminism:
    """Two seeded runs must agree to the byte."""

    @pytest.mark.parametrize("batching", [
        {}, {"batch_max_events": 16, "batch_linger_s": 0.002},
    ], ids=["unbatched", "batched"])
    def test_seeded_crash_runs_are_byte_identical(self, batching):
        runtime_a, report_a = run_sim(crash_schedule(), **batching, **EXACT)
        runtime_b, report_b = run_sim(crash_schedule(), **batching, **EXACT)
        assert report_a.counter_report() == report_b.counter_report()
        assert runtime_a.slates_of("U1") == runtime_b.slates_of("U1")


class TestOwnershipRecheckAcrossRingChanges:
    """``_deliver``'s effectively-once ownership re-check answers from the
    per-generation owner memo ``_send`` keeps. Under two-choice dispatch,
    a machine joining mid-stream or crashing and recovering must leave
    the counts exact and the runs byte-identical, with the machine ring
    asked less than once per delivery."""

    @staticmethod
    def run_two_choice(kind):
        config = SimConfig(delivery_semantics="effectively-once",
                           checkpoint_epoch_s=0.5, two_choice=True,
                           flush_policy=FlushPolicy.every(FLUSH),
                           queue_capacity=100_000)
        source = constant_rate("S1", rate_per_s=RATE, duration_s=DURATION,
                               key_fn=lambda i: f"k{i % KEYS}")
        schedule = crash_schedule() if kind == "crash" else FaultSchedule()
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(4, cores=4), config,
                             [source], failures=schedule)
        if kind == "join":
            runtime.schedule_add_machine(1.05, "e901")
        return runtime, runtime.run(6.0)

    @pytest.mark.parametrize("kind", ["join", "crash"])
    def test_exact_byte_identical_and_memoized(self, kind):
        runtime, report = self.run_two_choice(kind)
        assert total_counted(runtime) == int(RATE * DURATION)
        rerun, rereport = self.run_two_choice(kind)
        assert report.counter_report() == rereport.counter_report()
        assert runtime.slates_of("U1") == rerun.slates_of("U1")
        ring = runtime._machine_ring
        deliveries = sum(worker.queue.stats.offered
                         for machine in runtime.machines.values()
                         for worker in machine.workers)
        assert (ring.memo_hits + ring.memo_misses) / deliveries < 1


class FanOutMapper(Mapper):
    """Publishes ``config["fanout"]`` copies of every event."""

    def map(self, ctx, event):
        for _ in range(self.config["fanout"]):
            ctx.publish("S2", event.key, event.value)


class TestDerivedIdCollision:
    """Output ``i`` of an invocation is ``parent_oseq * stride + i``: an
    invocation emitting more than the stride would reuse the next
    parent's ids, so the simulator refuses instead."""

    @staticmethod
    def run_fanout(fanout):
        app = Application("fanout")
        app.add_stream("S1", external=True)
        app.add_stream("S2")
        app.add_mapper("M1", FanOutMapper, subscribes=["S1"],
                       publishes=["S2"], config={"fanout": fanout})
        app.add_updater("U1", CountingUpdater, subscribes=["S2"])
        source = constant_rate("S1", rate_per_s=100.0, duration_s=0.05,
                               key_fn=lambda i: f"k{i % 4}")
        runtime = SimRuntime(app.validate(), ClusterSpec.uniform(2, cores=2),
                             SimConfig(**EXACT), [source])
        runtime.run(1.0)
        return runtime

    def test_over_emitting_mapper_raises(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "ORIGIN_SEQ_STRIDE", 8)
        with pytest.raises(SimulationError, match="M1 emitted 9 events in one call"):
            self.run_fanout(9)

    def test_up_to_the_stride_is_fine(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "ORIGIN_SEQ_STRIDE", 8)
        runtime = self.run_fanout(8)
        assert total_counted(runtime) == 8 * 5


class ParentCarryingMapper(Mapper):
    """Publishes two events per input, each carrying ``(input, ordinal)``
    so a downstream operator can re-derive its id from the real parent."""

    def map(self, ctx, event):
        for ordinal in range(2):
            ctx.publish(self.config["output_sid"], event.key,
                        (event, ordinal))


class ProvenanceRecorder(Updater):
    """Keeps every ``(event, parent, ordinal, producer)`` it is handed."""

    seen: list = []

    def init_slate(self, key):
        return {"count": 0}

    def update(self, ctx, event, slate):
        slate["count"] += 1
        parent, ordinal = event.value
        self.seen.append((event, parent, ordinal, "M2"))
        grandparent, parent_ordinal = parent.value
        self.seen.append((parent, grandparent, parent_ordinal, "M1"))


class TestDerivedIdsMatchReference:
    """The compiled path derives output ids inline from the parent's
    tuple slots; :func:`derive_origin` over :meth:`Event.provenance` is
    the reference they must equal, for source parents (``origin`` unset)
    and derived ones alike, across a crash and its replay."""

    def test_every_delivered_id_is_derive_origin(self, monkeypatch):
        monkeypatch.setattr(ProvenanceRecorder, "seen", [])
        app = Application("chain")
        for sid in ("S1", "S2", "S3"):
            app.add_stream(sid, external=sid == "S1")
        app.add_mapper("M1", ParentCarryingMapper, subscribes=["S1"],
                       publishes=["S2"], config={"output_sid": "S2"})
        app.add_mapper("M2", ParentCarryingMapper, subscribes=["S2"],
                       publishes=["S3"], config={"output_sid": "S3"})
        app.add_updater("U1", ProvenanceRecorder, subscribes=["S3"])
        source = constant_rate("S1", rate_per_s=400.0, duration_s=0.5,
                               key_fn=lambda i: f"k{i % 8}")
        runtime = SimRuntime(
            app.validate(), ClusterSpec.uniform(4, cores=2),
            SimConfig(**EXACT, queue_capacity=100_000),
            [source], failures=FaultSchedule(seed=42).crash(
                0.25, "m001", recover_at=0.6))
        runtime.run(3.0)
        seen = ProvenanceRecorder.seen
        assert {producer for *_, producer in seen} == {"M1", "M2"}
        assert any(parent.origin is None for _, parent, _, _ in seen)
        assert any(parent.origin is not None for _, parent, _, _ in seen)
        for event, parent, ordinal, producer in seen:
            assert event.provenance() == derive_origin(parent, producer,
                                                       ordinal)


class TestEpochCheckpoints:
    def test_epochs_run_and_prune_the_journal(self):
        runtime, report = run_sim(FaultSchedule(), **EXACT)
        # 6 s horizon at 0.5 s epochs: 12 barriers, master-coordinated.
        assert report.robustness.checkpoint_epochs == 12
        assert report.master_stats["checkpoint_epochs"] == 12
        assert report.robustness.epoch_pruned > 0
        # Bounded journal: far fewer entries resident than recorded.
        assert len(runtime.replay_journal) < report.replay.recorded / 4

    def test_counter_report_carries_replay_lines(self):
        _, report = run_sim(FaultSchedule(), horizon=0.1, **EXACT)
        lines = report.counter_report().splitlines()
        assert any(line.startswith("replay.recorded=") for line in lines)
        assert any(line.startswith("replay.deduped=") for line in lines)
        assert any(line.startswith("robustness.checkpoint_epochs=")
                   for line in lines)

    def test_replay_lines_all_zero_when_knob_off(self):
        _, report = run_sim(FaultSchedule(), horizon=0.1)
        lines = report.counter_report().splitlines()
        for name in ("recorded", "pruned", "replayed", "deduped"):
            assert f"replay.{name}=0" in lines


class TestThrottleFinishAtEndOfRun:
    def test_open_pause_interval_closed_by_run(self):
        """Regression: a run that ends while the sources are paused must
        still account the final open pause interval (and close it, so a
        later finish() cannot double-count)."""
        throttle = SourceThrottle(high_watermark=0.5, low_watermark=0.2)
        config_kwargs = dict(
            overflow=OverflowPolicy.throttle(), throttle=throttle,
            queue_capacity=16, threads_per_machine=1,
            flush_policy=FlushPolicy.every(FLUSH))
        config = SimConfig(**config_kwargs)
        source = constant_rate("S1", rate_per_s=20_000.0, duration_s=2.0,
                               key_fn=lambda i: f"k{i % 4}")
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(2, cores=1),
                             config, [source], failures=FaultSchedule())
        report = runtime.run(0.5)   # end mid-storm, while paused
        assert throttle.paused
        assert throttle._paused_since is None          # interval closed
        assert report.throttle_paused_s > 0.0
        before = throttle.paused_time_s
        throttle.finish(now=99.0)                      # idempotent
        assert throttle.paused_time_s == before
