"""Data-plane batching: config validation, determinism, and counters.

Event coalescing is a *transport* optimization — it may change how many
envelopes cross the simulated network and how many DES steps the run
takes, but never what any updater computes. These tests pin that
contract: batching on versus off yields byte-identical final slates and
an identical counter report once the batching-specific lines are
stripped.
"""

import json

import pytest

from repro.analysis.mc.controlled import classify_entry
from repro.cluster import ClusterSpec
from repro.core import Application, Event
from repro.errors import ConfigurationError
from repro.sim import SimConfig, SimRuntime, constant_rate, from_trace
from repro.sim.des import SchedulerHook
from tests.conftest import (CountingUpdater, build_count_app,
                            build_two_stage_app, make_events)


def run_with(config, app=None, events=None, machines=4, horizon=30.0):
    source = from_trace("S1", iter(events or make_events(600, keys=20,
                                                         spacing=0.002)))
    runtime = SimRuntime(app or build_count_app(),
                         ClusterSpec.uniform(machines, cores=4),
                         config, [source])
    report = runtime.run(horizon)
    return runtime, report


def stable_lines(report):
    """counter_report minus the lines batching is allowed to change:
    step count, dispatch memo/queue counters, and dataplane.* itself."""
    return [line for line in report.counter_report().splitlines()
            if not line.startswith(("steps=", "dispatch.", "dataplane."))]


class TestConfigValidation:
    def test_negative_batch_max_events_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="batch_max_events must be >= 0"):
            SimConfig(batch_max_events=-1)

    def test_negative_batch_linger_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="batch_linger_s must be >= 0"):
            SimConfig(batch_linger_s=-0.001)

    @pytest.mark.parametrize("kwargs", [
        {"flusher_period_s": 0.0},
        {"retry_delay_s": 0.0},
        {"threads_per_machine": 0},
    ])
    def test_hanging_values_rejected(self, kwargs):
        """A zero period re-arms at one simulated instant forever; zero
        threads used to mean "the core count"."""
        with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("ignored, kwargs", [
        ("batch_linger_s", {"batch_linger_s": 0.5}),
        ("workers_per_function", {"workers_per_function": {"M1": 3}}),
        ("threads_per_machine",
         {"engine": "muppet1", "threads_per_machine": 2}),
        ("replay_horizon_s", {"replay_horizon_s": 0.5}),
        ("replay_horizon_s", {"replay_horizon_s": 0.5,
                              "delivery_semantics": "at-most-once"}),
    ])
    def test_ignored_pairs_rejected(self, ignored, kwargs):
        with pytest.raises(ConfigurationError, match=ignored):
            SimConfig(**kwargs)

    def test_nothing_the_caller_set_is_rewritten(self):
        kwargs = dict(delivery_semantics="at-least-once",
                      replay_horizon_s=0.5, threads_per_machine=2,
                      batch_max_events=8, batch_linger_s=0.5)
        cfg = SimConfig(**kwargs)
        assert {name: getattr(cfg, name) for name in kwargs} == kwargs

    def test_zero_disables_batching(self):
        cfg = SimConfig(batch_max_events=0, batch_linger_s=0.0)
        _, report = run_with(cfg)
        assert report.dataplane.batches_sent == 0
        assert report.dataplane.batched_events == 0


class TestBatchingDeterminism:
    @pytest.mark.parametrize("app_builder", [build_count_app,
                                             build_two_stage_app])
    def test_final_slates_byte_identical(self, app_builder):
        off = SimConfig(batch_max_events=0)
        on = SimConfig(batch_max_events=32, batch_linger_s=0.004)
        rt_off, _ = run_with(off, app=app_builder())
        rt_on, _ = run_with(on, app=app_builder())
        updater = "U2" if app_builder is build_two_stage_app else "U1"
        assert (json.dumps(rt_off.slates_of(updater), sort_keys=True)
                == json.dumps(rt_on.slates_of(updater), sort_keys=True))

    def test_counter_report_identical_modulo_batching(self):
        _, rep_off = run_with(SimConfig(batch_max_events=0))
        _, rep_on = run_with(SimConfig(batch_max_events=32,
                                       batch_linger_s=0.004))
        assert stable_lines(rep_off) == stable_lines(rep_on)

    def test_batching_run_is_reproducible(self):
        """Two identical batched runs are bit-identical end to end —
        including every dataplane counter."""
        cfg = dict(batch_max_events=16, batch_linger_s=0.002)
        _, rep_a = run_with(SimConfig(**cfg))
        _, rep_b = run_with(SimConfig(**cfg))
        assert rep_a.counter_report() == rep_b.counter_report()


class TestBatchingCounters:
    def test_counters_account_for_all_batched_events(self):
        _, report = run_with(SimConfig(batch_max_events=16,
                                       batch_linger_s=0.002))
        dp = report.dataplane
        assert dp.batches_sent > 0
        assert dp.batched_events >= dp.batches_sent
        assert dp.max_batch_events <= 16
        assert (dp.size_flushes + dp.linger_flushes + dp.forced_flushes
                == dp.batches_sent)

    def test_size_trigger_fires_under_load(self):
        """A tiny size cap with a long linger must flush by size."""
        _, report = run_with(SimConfig(batch_max_events=2,
                                       batch_linger_s=5.0))
        assert report.dataplane.size_flushes > 0

    def test_linger_trigger_fires_on_sparse_traffic(self):
        source = constant_rate("S1", rate_per_s=50.0, duration_s=1.0,
                               key_fn=lambda i: f"k{i % 5}")
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(4, cores=4),
                             SimConfig(batch_max_events=1000,
                                       batch_linger_s=0.003),
                             [source])
        report = runtime.run(30.0)
        assert report.dataplane.linger_flushes > 0
        assert report.dataplane.size_flushes == 0

    def test_latency_bounded_by_linger(self):
        """The linger adds at most its own duration per batched hop.

        The count app crosses two machine-to-machine links (S1→M1 and
        S2→U1), so worst case is two lingers; the 1 ms slack covers the
        envelope's larger bandwidth term.  The lower bound is E2c's
        other half: p99 grows with the linger (0 -> 2 -> 10 ms; strictly,
        since no batch here fills before its linger expires), so batching
        that silently stopped lingering fails here.
        """
        linger = 0.01
        _, rep_off = run_with(SimConfig(batch_max_events=0))
        _, rep_short = run_with(SimConfig(batch_max_events=1000,
                                          batch_linger_s=0.002))
        _, rep_on = run_with(SimConfig(batch_max_events=1000,
                                       batch_linger_s=linger))
        assert rep_on.latency.maximum <= (rep_off.latency.maximum
                                          + 2 * linger + 1e-3)
        assert rep_short.latency.p99 > rep_off.latency.p99
        assert rep_on.latency.p99 > rep_short.latency.p99


class TestBatchingUnderFaults:
    def test_kill_flushes_pending_batches(self):
        """Killing a machine force-flushes its pending envelopes so the
        recovery path sees every in-flight event (dead-letter or
        reroute), never a silent drop."""
        from repro.faults import FaultSchedule

        from repro.slates.manager import FlushPolicy

        events = make_events(800, keys=20, spacing=0.002)  # 500 ev/s
        rate, keys, flush = 500.0, 20, 0.05
        schedule = FaultSchedule(seed=7).crash(0.5, "m001",
                                               recover_at=0.9)
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(4, cores=4),
                             SimConfig(batch_max_events=64,
                                       batch_linger_s=0.05,
                                       flush_policy=FlushPolicy.every(
                                           flush)),
                             [from_trace("S1", iter(events))],
                             failures=schedule)
        report = runtime.run(30.0)
        dp = report.dataplane
        assert dp.forced_flushes > 0
        counted = sum(v["count"]
                      for v in runtime.slates_of("U1").values())
        lost = report.counters.lost_total()
        # At-most-once, and loss beyond the explicitly counted
        # lost_failure is bounded by one unflushed slate interval on the
        # dead machine plus a per-key in-progress update — the same
        # bound the chaos suite documents.
        assert counted + lost <= len(events)
        assert counted + lost >= len(events) - (rate * flush + keys)


def _updater_app():
    """One updater on the external stream: the only remote sends are
    source -> owner, so each link's fill order is the test's to set."""
    app = Application("fill-order")
    app.add_stream("S1", external=True)
    app.add_updater("U1", CountingUpdater, subscribes=["S1"])
    return app.validate()


class _Executed(SchedulerHook):
    """Keeps the default schedule and records every entry it runs."""

    def __init__(self):
        self.entries = []

    def executed(self, sim, entry):
        self.entries.append(entry)


class TestLinkTimers:
    def test_size_flush_cancels_the_linger_timer_at_no_step(self):
        """Two events per link fill a two-event buffer: every batch
        ships on size, each cancelling the linger timer its first event
        armed — and a cancelled timer is skipped, not run as a step."""
        config = SimConfig(batch_max_events=2, batch_linger_s=0.5)
        events = make_events(400, keys=16, spacing=0.002)
        _, plain = run_with(config, app=_updater_app(), events=events)
        runtime = SimRuntime(_updater_app(), ClusterSpec.uniform(4, cores=4),
                             config, [from_trace("S1", iter(events))])
        executed = runtime.sim.hook = _Executed()
        report = runtime.run(30.0)
        dp = report.dataplane
        assert dp.size_flushes > 0
        timers = [entry for entry in executed.entries
                  if classify_entry(runtime, entry)[0] == "ctl:<lambda>"]
        # Only the timers no size flush cancelled ran...
        assert len(timers) == dp.linger_flushes < dp.size_flushes
        # ...and every step is an executed entry, hooked or not.
        assert runtime.sim.steps == len(executed.entries)
        assert plain.steps == report.steps

    def test_a_ring_change_ships_links_in_buffer_fill_order(self):
        """A link that ships and then refills queues behind every link
        that began filling before it: the join's forced flush ships the
        refilled links in the order their buffers began to fill."""
        probe = SimRuntime(_updater_app(), ClusterSpec.uniform(3, cores=2),
                           SimConfig(), [])
        owners = {}
        for i in range(64):
            owner = probe._membership.owner(f"k{i}", "U1").name
            owners.setdefault(owner, f"k{i}")
        (x, key_x), (y, key_y) = sorted(owners.items())[:2]
        events = [Event("S1", 0.000, key_x), Event("S1", 0.001, key_y),
                  # Both linger out at 0.01; then y refills before x.
                  Event("S1", 0.020, key_y), Event("S1", 0.021, key_x)]
        runtime = SimRuntime(
            _updater_app(), ClusterSpec.uniform(3, cores=2),
            SimConfig(batch_max_events=64, batch_linger_s=0.01, trace=True),
            [from_trace("S1", iter(events))])
        runtime.schedule_add_machine(0.025, "m900", cores=2)
        report = runtime.run(1.0)
        ships = [(span["trigger"], span["dst"])
                 for span in runtime.tracer.spans()
                 if span["kind"] == "batch_flush"]
        assert ships == [("linger", x), ("linger", y),
                         ("forced", y), ("forced", x)]
        assert report.dataplane.forced_flushes == 2
