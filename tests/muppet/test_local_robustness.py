"""Threaded-engine robustness: failing operators (either worker layout),
TTLs, store sharing."""

import time


from repro.core import Application, Event, Mapper, Updater
from repro.muppet.local import LocalConfig, LocalMuppet
from repro.slates.manager import FlushPolicy
from tests.conftest import PER_FUNCTION, POOL, CountingUpdater, EchoMapper


class ExplodingMapper(Mapper):
    """Raises on every third event."""

    def __init__(self, config=None, name=""):
        super().__init__(config, name)
        self._n = 0

    def map(self, ctx, event):
        self._n += 1
        if self._n % 3 == 0:
            raise RuntimeError("boom")
        ctx.publish("S2", event.key, event.value)


class TestOperatorErrorContainment:
    layout = POOL

    def build(self):
        app = Application("explosive")
        app.add_stream("S1", external=True)
        app.add_stream("S2")
        app.add_mapper("M1", ExplodingMapper, subscribes=["S1"],
                       publishes=["S2"])
        app.add_updater("U1", CountingUpdater, subscribes=["S2"])
        return app.validate()

    def test_failing_operator_does_not_kill_workers(self):
        with self.layout.build(self.build()) as runtime:
            for i in range(30):
                runtime.ingest(Event("S1", float(i), "k"))
            assert runtime.drain()
            assert runtime.operator_errors == 10
            assert isinstance(runtime.last_error, RuntimeError)
            # The surviving 20 events were processed normally.
            assert runtime.read_slate("U1", "k")["count"] == 20

    def test_engine_still_responsive_after_many_errors(self):
        with self.layout.build(self.build(), 1) as runtime:
            for i in range(99):
                runtime.ingest(Event("S1", float(i), "k"))
            assert runtime.drain(timeout=30.0)
            assert runtime.status()["running"]


class TestOperatorErrorContainmentPerFunction(TestOperatorErrorContainment):
    layout = PER_FUNCTION


class TestSlateTTLOnLocalRuntime:
    def test_ttl_reset_on_thread_runtime(self):
        app = Application("ttl")
        app.add_stream("S1", external=True)
        app.add_updater("U1", CountingUpdater, subscribes=["S1"],
                        config={"slate_ttl": 0.2})
        with LocalMuppet(app, LocalConfig(
                num_threads=1,
                flush_policy=FlushPolicy.write_through())) as runtime:
            runtime.ingest(Event("S1", 0.0, "k"))
            runtime.drain()
            assert runtime.read_slate("U1", "k")["count"] == 1
            time.sleep(0.4)  # wall-clock TTL lapse
            runtime.ingest(Event("S1", 1.0, "k"))
            runtime.drain()
            assert runtime.read_slate("U1", "k")["count"] == 1  # reset


class TestStoreSharing:
    def test_two_runtimes_share_a_store(self):
        """A restarted application refetches its slates from the shared
        kv-store — the §4.2 'resuming, restarting, or recovering' story
        on the real-thread runtime."""
        import itertools

        from repro.kvstore import ReplicatedKVStore

        counter = itertools.count()
        store = ReplicatedKVStore(["kv0"], replication_factor=1,
                                  clock=lambda: float(next(counter)))

        def build():
            app = Application("restartable")
            app.add_stream("S1", external=True)
            app.add_stream("S2")
            app.add_mapper("M1", EchoMapper, subscribes=["S1"],
                           publishes=["S2"])
            app.add_updater("U1", CountingUpdater, subscribes=["S2"])
            return app.validate()

        config = LocalConfig(num_threads=2,
                             flush_policy=FlushPolicy.write_through())
        with LocalMuppet(build(), config, store=store) as first:
            for i in range(10):
                first.ingest(Event("S1", float(i), "k"))
            first.drain()
        # New runtime instance, same store: state survives the restart.
        with LocalMuppet(build(), config, store=store) as second:
            assert second.read_slate("U1", "k")["count"] == 10
            for i in range(5):
                second.ingest(Event("S1", 100.0 + i, "k"))
            second.drain()
            assert second.read_slate("U1", "k")["count"] == 15
