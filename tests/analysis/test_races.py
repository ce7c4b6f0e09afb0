"""Lockset race detector: flags seeded races, passes the real engine."""

import threading
from types import SimpleNamespace

import pytest

from repro.analysis.races import (LockMonitor, TrackedLock,
                                  instrument_local_muppet, race_smoke_run)
from repro.errors import AnalysisError
from tests.conftest import PER_FUNCTION, POOL


def _run_threads(*targets):
    threads = [threading.Thread(target=t, name=f"racer-{i}")
               for i, t in enumerate(targets)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestLocksetAlgorithm:
    def test_flags_write_under_disjoint_locks(self):
        """Two threads writing one state under different locks: the
        candidate lockset empties — the textbook eraser race."""
        monitor = LockMonitor()
        lock_a = TrackedLock("a", monitor)
        lock_b = TrackedLock("b", monitor)

        def writer(lock):
            def run():
                for _ in range(3):
                    with lock:
                        monitor.record_access("shared.counter", "write")
            return run

        _run_threads(writer(lock_a), writer(lock_b))
        races = monitor.races()
        assert [r.state for r in races] == ["shared.counter"]
        race = races[0]
        assert len(race.threads) == 2
        # The report shows each side's held locks and a stack.
        formatted = race.format()
        assert "RACE on shared.counter" in formatted
        assert "[a]" in formatted and "[b]" in formatted

    def test_consistent_lock_is_race_free(self):
        monitor = LockMonitor()
        lock = TrackedLock("only", monitor)

        def writer():
            for _ in range(3):
                with lock:
                    monitor.record_access("shared.counter", "write")

        _run_threads(writer, writer)
        assert monitor.races() == []

    def test_read_only_sharing_is_not_a_race(self):
        """Unlocked reads from many threads never constitute a race."""
        monitor = LockMonitor()

        def reader():
            monitor.record_access("config.value", "read")

        _run_threads(reader, reader)
        assert monitor.races() == []

    def test_single_thread_is_not_a_race(self):
        monitor = LockMonitor()
        monitor.record_access("local.value", "write")
        monitor.record_access("local.value", "write")
        assert monitor.races() == []

    def test_stop_recording_freezes_the_log(self):
        monitor = LockMonitor()
        lock = TrackedLock("a", monitor)

        def locked_writer():
            with lock:
                monitor.record_access("shared", "write")

        _run_threads(locked_writer)
        monitor.stop_recording()

        # A post-teardown unlocked write would empty the lockset, but
        # recording is frozen.
        def bare_writer():
            monitor.record_access("shared", "write")

        _run_threads(bare_writer)
        assert monitor.races() == []


class TestLockOrderGraph:
    def test_detects_ab_ba_cycle(self):
        monitor = LockMonitor()
        lock_a = TrackedLock("a", monitor)
        lock_b = TrackedLock("b", monitor)
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_a:
                pass
        cycles = monitor.ordering_cycles()
        assert len(cycles) == 1
        assert set(cycles[0]) == {"a", "b"}

    def test_consistent_order_has_no_cycle(self):
        monitor = LockMonitor()
        lock_a = TrackedLock("a", monitor)
        lock_b = TrackedLock("b", monitor)
        for _ in range(2):
            with lock_a:
                with lock_b:
                    pass
        assert monitor.ordering_cycles() == []

    def test_slate_locks_share_one_graph_group(self):
        """Distinct per-key slate locks are one node in the order graph:
        k1->k2 and k2->k1 across *different* keys is not a cycle."""
        monitor = LockMonitor()
        k1 = TrackedLock("slate[U1/k1]", monitor, group="slate")
        k2 = TrackedLock("slate[U1/k2]", monitor, group="slate")
        with k1:
            with k2:
                pass
        with k2:
            with k1:
                pass
        assert monitor.ordering_cycles() == []

    def test_report_mentions_cycle(self):
        monitor = LockMonitor()
        lock_a = TrackedLock("a", monitor)
        lock_b = TrackedLock("b", monitor)
        with lock_a:
            with lock_b:
                monitor.record_access("s", "write")
        with lock_b:
            with lock_a:
                pass
        assert "LOCK-ORDER CYCLE" in monitor.report()


class TestInstrumentation:
    def test_refuses_running_engine(self):
        fake = SimpleNamespace(_running=True)
        with pytest.raises(AnalysisError, match="before runtime.start"):
            instrument_local_muppet(fake)

    def test_smoke_run_is_race_and_cycle_free(self):
        """The acceptance gate: LocalMuppet under churn shows no empty
        locksets and no lock-order cycles."""
        monitor = race_smoke_run(events=600, threads=4, keys=8)
        assert monitor.acquisitions > 0
        assert monitor.accesses > 0
        races = monitor.races()
        assert races == [], "\n".join(r.format() for r in races)
        assert monitor.ordering_cycles() == []
        assert "no data races, no lock-order cycles" in monitor.report()

    def test_smoke_run_observes_slate_counter_and_worker_state(self):
        monitor = race_smoke_run(events=200, threads=2, keys=4)
        states = set(monitor._lockset)
        assert any(s.startswith("slate:U1/") for s in states)
        assert {"counters.published", "counters.processed"} <= states
        for index in range(2):
            assert {f"worker[{index}].current", f"worker[{index}].queue",
                    f"worker[{index}].parked"} <= states
        # Everything the dispatch lock guards is only ever touched
        # under it; slates are touched under their stripe.
        for state, lockset in monitor._lockset.items():
            if state.startswith(("counters.", "worker[")):
                assert "dispatch" in lockset, state
            if state.startswith("slate:"):
                assert any(name.startswith("slate[") for name in lockset)

    def test_smoke_run_records_the_flushers_encodes_under_a_stripe(self):
        """The flusher's snapshot encodes are slate reads, and each is
        taken holding the slate's stripe (then the manager lock)."""
        monitor = race_smoke_run(events=200, threads=2, keys=4)
        flusher_reads = [
            sample for state, samples in monitor._samples.items()
            if state.startswith("slate:") for sample in samples
            if sample.thread == "muppet-flusher" and sample.kind == "read"]
        assert flusher_reads
        for sample in flusher_reads:
            assert "manager" in sample.locks
            assert any(name.startswith("slate[") for name in sample.locks)

    def test_lockset_catches_a_flusher_encoding_outside_the_stripe(self):
        """Seeded mutant: a flusher that encodes holding only the manager
        lock. Workers write those slates under their stripes, so no lock
        covers every access — the detector must say so."""
        import contextlib

        from repro.analysis.races import _await_flushed
        from repro.core import Event
        from repro.muppet.local import LocalConfig, LocalMuppet
        from repro.slates.manager import FlushPolicy
        from tests.conftest import build_count_app

        class EncodesOutsideTheStripe(LocalMuppet):
            def _slate_lock(self, updater, key):
                if threading.current_thread().name == "muppet-flusher":
                    return contextlib.nullcontext()
                return super()._slate_lock(updater, key)

        runtime = EncodesOutsideTheStripe(build_count_app(), LocalConfig(
            num_threads=2, flush_policy=FlushPolicy.every(0.01),
            flusher_period_s=0.005))
        monitor = instrument_local_muppet(runtime)
        with runtime:
            for i in range(200):
                runtime.ingest(Event("S1", ts=i * 0.001, key=f"k{i % 4}"))
            assert runtime.drain()
            assert _await_flushed([runtime])
            monitor.stop_recording()
        raced = monitor.races()
        assert raced and all(race.state.startswith("slate:U1/")
                             for race in raced)
        assert "read by muppet-flusher holding [manager]" in raced[0].format()
        assert monitor.ordering_cycles() == []

    def test_instrumented_engine_tracks_the_four_locks_and_the_stripes(
            self, layout=POOL):
        from repro.muppet.local import SLATE_LOCK_STRIPES
        from tests.conftest import build_count_app

        runtime = layout.build(build_count_app(), 3)
        instrument_local_muppet(runtime)
        dispatch = runtime._dispatch_lock
        assert isinstance(dispatch, TrackedLock)
        assert runtime._drained._lock is dispatch
        assert all(worker.cond._lock is dispatch
                   for worker in runtime._workers)
        assert isinstance(runtime._manager_lock, TrackedLock)
        assert isinstance(runtime._timer_cond._lock, TrackedLock)
        stripes = runtime._slate_stripes
        assert len(stripes) == SLATE_LOCK_STRIPES
        assert {lock.group for lock in stripes} == {"slate"}
        assert len({lock.name for lock in stripes}) == SLATE_LOCK_STRIPES

    def test_lockset_catches_a_forgotten_dispatch_lock(self, layout=POOL):
        """Seeded mutant: a delivery path that bumps a counter without
        the dispatch lock. Workers on two threads write it bare while
        everyone else holds the lock — the candidate set empties."""
        from repro.core import Event
        from tests.conftest import build_count_app

        class ForgotTheLock(layout.engine):
            def _process(self, worker, item):
                self.counters.published += 0  # mutant: no dispatch lock
                return super()._process(worker, item)

        runtime = ForgotTheLock(build_count_app(), layout.config(4))
        monitor = instrument_local_muppet(runtime)
        with runtime:
            for i in range(400):
                runtime.ingest(Event("S1", ts=i * 0.001, key=f"k{i % 8}"))
            assert runtime.drain()
            monitor.stop_recording()
        raced = [race.state for race in monitor.races()]
        assert raced == ["counters.published"]
        assert "holding [<none>]" in monitor.races()[0].format()
        assert monitor.ordering_cycles() == []

    def test_the_per_function_layout_is_instrumented_alike(self):
        self.test_instrumented_engine_tracks_the_four_locks_and_the_stripes(
            PER_FUNCTION)
        self.test_lockset_catches_a_forgotten_dispatch_lock(PER_FUNCTION)
