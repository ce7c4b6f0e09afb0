"""LocalMuppet: the real-thread single-machine runtime."""

import threading
import time

import pytest

from repro.core import Application, Event
from repro.errors import (ConfigurationError, EngineStoppedError,
                          WorkflowError)
from repro.muppet.local import LocalConfig, LocalMuppet
from repro.muppet.local1 import Local1Config, LocalMuppet1
from repro.muppet.queues import OverflowPolicy
from repro.slates.manager import FlushPolicy
from tests.conftest import (CountingUpdater, EchoMapper, build_count_app,
                            make_events)


def run_app(app, events, config=None):
    with LocalMuppet(app, config or LocalConfig(num_threads=4)) as runtime:
        runtime.ingest_many(events)
        assert runtime.drain()
        return runtime, {
            key: slate
            for spec in app.updaters()
            for key, slate in runtime.read_slates_of(spec.name).items()
        }


class TestBasicExecution:
    def test_counts_match_input(self, count_app):
        runtime, _ = (None, None)
        with LocalMuppet(count_app) as runtime:
            runtime.ingest_many(make_events(100, keys=4))
            assert runtime.drain()
            for key in ("k0", "k1", "k2", "k3"):
                assert runtime.read_slate("U1", key)["count"] == 25

    def test_two_stage_pipeline(self, two_stage_app):
        with LocalMuppet(two_stage_app) as runtime:
            runtime.ingest_many(make_events(40, keys=2))
            assert runtime.drain()
            assert runtime.read_slate("U2", "k0")["count"] == 20
            assert runtime.read_slate("U1", "k1")["count"] == 20

    def test_single_thread_matches_multi_thread(self, ):
        events = make_events(200, keys=10)
        _, single = run_app(build_count_app(), events,
                            LocalConfig(num_threads=1))
        _, multi = run_app(build_count_app(), events,
                           LocalConfig(num_threads=8))
        assert single == multi

    def test_counters(self, count_app):
        with LocalMuppet(count_app) as runtime:
            runtime.ingest_many(make_events(10))
            runtime.drain()
            snap = runtime.counters.snapshot()
            assert snap["published"] == 20
            assert snap["processed"] == 20

    def test_latency_recorded(self, count_app):
        with LocalMuppet(count_app) as runtime:
            runtime.ingest_many(make_events(20))
            runtime.drain()
            summary = runtime.latency.summary()
            assert summary.count == 20
            assert summary.p99 < 5.0  # sanity: well under 2 s bound


class TestLifecycle:
    @pytest.mark.parametrize("config", [LocalConfig, Local1Config])
    def test_flusher_period_that_would_spin_rejected(self, config):
        with pytest.raises(ConfigurationError, match="flusher_period_s"):
            config(flusher_period_s=0.0)

    @pytest.mark.parametrize("engine, config",
                             [(LocalMuppet, LocalConfig),
                              (LocalMuppet1, Local1Config)],
                             ids=["2.0", "1.0"])
    def test_first_interval_flush_is_one_interval_after_start(
            self, count_app, engine, config):
        """The interval clock starts at start(), not at the monotonic
        clock's zero: under a 1 s policy nothing is written in the
        first 0.3 s (three flusher ticks)."""
        runtime = engine(count_app, config(
            flush_policy=FlushPolicy.every(1.0))).start()
        try:
            runtime.ingest_many(make_events(10, keys=5))
            assert runtime.drain()
            time.sleep(0.3)
            assert runtime.metrics_snapshot()["slates.kv_writes"] == 0
        finally:
            runtime.stop()

    def test_ingest_before_start_rejected(self, count_app):
        runtime = LocalMuppet(count_app)
        with pytest.raises(EngineStoppedError):
            runtime.ingest(Event("S1", 0.0, "k"))

    def test_restart_rejected(self, count_app):
        runtime = LocalMuppet(count_app).start()
        runtime.stop()
        with pytest.raises(EngineStoppedError):
            runtime.start()

    def test_stop_flushes_dirty_slates(self, count_app):
        runtime = LocalMuppet(count_app, LocalConfig(
            flush_policy=FlushPolicy.every(3600.0))).start()
        runtime.ingest_many(make_events(10, keys=1))
        runtime.drain()
        store = runtime.store
        runtime.stop()
        result = store.read("k0", "U1")
        assert result.value is not None

    def test_ingest_to_internal_stream_rejected(self, count_app):
        with LocalMuppet(count_app) as runtime:
            with pytest.raises(WorkflowError, match="external"):
                runtime.ingest(Event("S2", 0.0, "k"))


class TestSlateReads:
    def test_read_slate_prefers_fresh_cache(self, count_app):
        """Section 4.4: reads come from the cache, not the stale store."""
        config = LocalConfig(flush_policy=FlushPolicy.every(3600.0))
        with LocalMuppet(count_app, config) as runtime:
            runtime.ingest_many(make_events(10, keys=1))
            runtime.drain()
            # Store has nothing yet (interval flush far away)...
            assert runtime.store.read("k0", "U1").value is None
            # ...but the HTTP-style read sees the live value.
            assert runtime.read_slate("U1", "k0")["count"] == 10

    def test_read_missing_slate_is_none(self, count_app):
        with LocalMuppet(count_app) as runtime:
            assert runtime.read_slate("U1", "ghost") is None

    def test_status_shape(self, count_app):
        with LocalMuppet(count_app, LocalConfig(num_threads=3)) as runtime:
            status = runtime.status()
            assert len(status["queues"]) == 3
            assert status["running"]
            assert "counters" in status


class TestOverflow:
    def test_drop_policy_loses_events_under_pressure(self, count_app):
        config = LocalConfig(num_threads=1, queue_capacity=5,
                             overflow=OverflowPolicy.drop())
        with LocalMuppet(count_app, config) as runtime:
            runtime.ingest_many(make_events(500, keys=1))
            runtime.drain()
            snap = runtime.counters.snapshot()
            counted = runtime.read_slate("U1", "k0")["count"]
            assert snap["dropped_overflow"] > 0
            assert counted + snap["dropped_overflow"] >= 500

    def test_throttle_policy_loses_nothing(self, count_app):
        """Source throttling trades latency for completeness (§5)."""
        config = LocalConfig(num_threads=1, queue_capacity=5,
                             overflow=OverflowPolicy.throttle())
        with LocalMuppet(count_app, config) as runtime:
            runtime.ingest_many(make_events(300, keys=1))
            runtime.drain()
            assert runtime.read_slate("U1", "k0")["count"] == 300
            assert runtime.counters.dropped_overflow == 0


class TestDivertOverflow:
    def test_diverted_events_reach_degraded_path(self):
        app = Application("degraded")
        app.add_stream("S1", external=True)
        app.add_stream("S2")
        app.add_stream("S_overflow", overflow=True)
        app.add_mapper("M1", EchoMapper, subscribes=["S1"],
                       publishes=["S2"])
        app.add_updater("U1", CountingUpdater, subscribes=["S2"])
        app.add_updater("U_cheap", CountingUpdater,
                        subscribes=["S_overflow"])
        config = LocalConfig(num_threads=1, queue_capacity=4,
                             overflow=OverflowPolicy.divert("S_overflow"))
        with LocalMuppet(app, config) as runtime:
            runtime.ingest_many(make_events(400, keys=1))
            runtime.drain()
            main = runtime.read_slate("U1", "k0")["count"]
            assert main > 0


class TestConcurrencySafety:
    def test_parallel_ingest_threads(self, count_app):
        with LocalMuppet(count_app, LocalConfig(num_threads=4)) as runtime:
            def feed(offset):
                for i in range(100):
                    runtime.ingest(Event("S1", float(offset * 100 + i),
                                         key=f"k{i % 3}"))

            threads = [threading.Thread(target=feed, args=(j,))
                       for j in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert runtime.drain()
            total = sum(runtime.read_slate("U1", f"k{i}")["count"]
                        for i in range(3))
            assert total == 400
