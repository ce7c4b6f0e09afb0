"""LocalMuppet1: the real-thread Muppet 1.0 runtime."""

import pytest

from repro.core import Event
from repro.errors import EngineStoppedError
from repro.muppet.local import CACHE_SLATES, LocalConfig, LocalMuppet
from repro.muppet.local1 import Local1Config, LocalMuppet1
from repro.workloads import CheckinGenerator
from repro.apps import build_retailer_app
from tests.conftest import build_count_app, build_two_stage_app, make_events


class TestBasicExecution:
    def test_counts_match_input(self):
        with LocalMuppet1(build_count_app(),
                          Local1Config(workers_per_function=2)) as runtime:
            runtime.ingest_many(make_events(100, keys=4))
            assert runtime.drain()
            for key in ("k0", "k1", "k2", "k3"):
                assert runtime.read_slate("U1", key)["count"] == 25

    def test_two_stage_pipeline(self):
        with LocalMuppet1(build_two_stage_app()) as runtime:
            runtime.ingest_many(make_events(40, keys=2))
            assert runtime.drain()
            assert runtime.read_slate("U2", "k0")["count"] == 20

    def test_retailer_app_matches_truth(self):
        events, truth = CheckinGenerator(seed=301).take_with_truth(600)
        with LocalMuppet1(build_retailer_app(),
                          Local1Config(workers_per_function=3)) as runtime:
            runtime.ingest_many(events)
            assert runtime.drain()
            got = {k: v["count"]
                   for k, v in runtime.read_slates_of("U1").items()}
        assert got == truth

    def test_agrees_with_muppet2_runtime(self):
        """The same app gives the same slates on the 1.0 and 2.0
        real-thread runtimes — the paper's apps ran on both unchanged."""
        events = make_events(200, keys=8)
        with LocalMuppet1(build_count_app()) as runtime1:
            runtime1.ingest_many(list(events))
            assert runtime1.drain()
            counts1 = {k: v["count"]
                       for k, v in runtime1.read_slates_of("U1").items()}
        with LocalMuppet(build_count_app(),
                         LocalConfig(num_threads=4)) as runtime2:
            runtime2.ingest_many(list(events))
            assert runtime2.drain()
            counts2 = {k: v["count"]
                       for k, v in runtime2.read_slates_of("U1").items()}
        assert counts1 == counts2


class TestArchitecture10:
    def test_single_owner_per_key(self):
        """All events of one key land on one worker's private cache."""
        with LocalMuppet1(build_count_app(),
                          Local1Config(workers_per_function=4)) as runtime:
            runtime.ingest_many(make_events(60, keys=1))
            assert runtime.drain()
            holders = [
                worker.wid for worker in runtime._workers
                if worker.function == "U1"
                and len(worker.manager.cache)]
            assert len(holders) == 1

    def test_ipc_bytes_are_real(self):
        """Events and slates genuinely cross the conductor pipe."""
        with LocalMuppet1(build_count_app()) as runtime:
            runtime.ingest_many(make_events(50, keys=5))
            assert runtime.drain()
            stats = runtime.ipc_stats()
        # 50 map + 50 update round-trips.
        assert stats.frames_to_task == 100
        assert stats.frames_to_conductor == 100
        assert stats.total_bytes > 100 * 40  # real serialized frames

    def test_fragmented_caches_per_worker(self):
        config = Local1Config(workers_per_function=2)
        with LocalMuppet1(build_count_app(), config) as runtime:
            updater_workers = [w for w in runtime._workers
                               if w.function == "U1"]
            # The machine's slots / (2 functions x 2 workers).
            assert all(w.manager.cache.capacity == CACHE_SLATES // 4
                       for w in updater_workers)

    def test_status_and_metrics_sum_over_the_private_pools(self):
        with LocalMuppet1(build_count_app(),
                          Local1Config(workers_per_function=2)) as runtime:
            names = {thread.name for thread in runtime._threads}
            runtime.ingest_many(make_events(40, keys=8))
            assert runtime.drain()
            status = runtime.status()
            snapshot = runtime.metrics_snapshot()
        assert names == {"muppet-worker-0", "muppet-worker-1",
                         "muppet-worker-2", "muppet-worker-3",
                         "muppet-flusher", "muppet-timer"}
        assert status["threads"] == 4 and status["queues"] == [0] * 4
        assert status["counters"]["processed"] == 80
        assert snapshot["dispatch.dispatched"] == 80
        assert snapshot["slates.initialized"] == 8  # over both U1 caches
        assert snapshot["errors.operator_errors"] == 0

    def test_full_queue_blocks_the_source_by_default(self):
        assert Local1Config().overflow.kind == "throttle"

    def test_restart_rejected(self):
        runtime = LocalMuppet1(build_count_app()).start()
        runtime.stop()
        with pytest.raises(EngineStoppedError):
            runtime.start()

    def test_latency_recorded(self):
        with LocalMuppet1(build_count_app()) as runtime:
            runtime.ingest_many(make_events(30))
            assert runtime.drain()
            assert runtime.latency.summary().count == 30


class TestTimersOn10Runtime:
    def test_windowed_app_produces_counts(self):
        """Timer callbacks round-trip through the conductor pipe too."""
        from repro.apps import build_hot_topics_app

        import json

        def tweet(topic, ts):
            return Event("S1", ts, "u1",
                         json.dumps({"user": "u1", "topics": [topic]}))

        app = build_hot_topics_app(window_s=60.0, with_sink=False)
        events = [tweet("sports", float(t)) for t in (0, 10, 20)]
        events.append(tweet("sports", 120.0))
        with LocalMuppet1(app) as runtime:
            runtime.ingest_many(events)
            assert runtime.drain()
            # U2 received the closed window's count: total_count == 3
            # for the first minute's key plus 1 for the second window.
            slates = runtime.read_slates_of("U2")
        assert slates["sports|0"]["total_count"] == 3
        assert slates["sports|2"]["total_count"] == 1
