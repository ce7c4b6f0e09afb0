"""Threaded-engine robustness: failing operators and unencodable slates
(either worker layout), the coalesced flush under stress, TTLs, store
sharing."""

import random
import sys
import threading
import time

from repro.core import Application, Event, Mapper, Updater
from repro.core.slate import SlateKey
from repro.muppet import local as local_module
from repro.muppet import local1 as local1_module
from repro.muppet.local import LocalConfig, LocalMuppet
from repro.slates.codec import DEFAULT_CODEC
from repro.slates.manager import FlushPolicy
from tests.conftest import (LAYOUTS, PER_FUNCTION, POOL, CountingUpdater,
                            EchoMapper)


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


def build_counter_app():
    """S1 -> U1(count): every delivery updates a slate."""
    app = Application("flushed")
    app.add_stream("S1", external=True)
    app.add_updater("U1", CountingUpdater, subscribes=["S1"])
    return app.validate()


def _stored(runtime, key):
    value = runtime.store.read(key, "U1").value
    return None if value is None else DEFAULT_CODEC.decode(value)


@LAYOUTS
def test_an_unencodable_slate_does_not_stop_the_others_persisting(layout):
    """A slate holding a set cannot be JSON-encoded. Every flush skips it,
    counts the skip and leaves it dirty; the flusher keeps running, every
    other slate reaches the store, and stop() returns."""
    runtime = layout.build(build_counter_app(),
                           flush_policy=FlushPolicy.every(0.02),
                           flusher_period_s=0.01).start()
    keys = [f"k{i}" for i in range(50)]
    try:
        runtime.ingest(Event("S1", 0.0, "bad"))
        assert runtime.drain()
        # Planted under the slate's stripe, as update() would have stored
        # it (the 1.0 layout's pipe refuses a set from update() itself).
        with runtime._slate_lock("U1", "bad"):
            for manager in runtime._managers:
                slate = manager.cache.peek(SlateKey("U1", "bad"))
                if slate is not None:
                    slate["seen"] = {1}
        for i, key in enumerate(keys):
            runtime.ingest(Event("S1", 1.0 + i, key))
        assert runtime.drain()
        deadline = time.monotonic() + 10.0
        while (any(_stored(runtime, key) is None for key in keys)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        flusher = [t for t in runtime._threads if t.name == "muppet-flusher"]
        assert flusher[0].is_alive()
        assert runtime.flush_errors >= 1
        assert runtime.metrics_snapshot()["errors.flush_errors"] >= 1
        assert "not JSON-encodable" in str(runtime.last_error)
    finally:
        runtime.stop()
    assert not any(thread.is_alive() for thread in runtime._threads)
    assert all(_stored(runtime, key) == {"count": 1} for key in keys)
    assert _stored(runtime, "bad") is None
    assert sum(manager.cache.dirty_count()
               for manager in runtime._managers) == 1


class PaddedCounter(CountingUpdater):
    """A counter whose 2 kB slate takes a while to encode: a flush's
    snapshot-to-clean window spans many worker deliveries."""

    def init_slate(self, key):
        return {"count": 0, "pad": "x" * 2_000}


@LAYOUTS
def test_coalesced_flush_under_stress_leaves_the_store_current(layout,
                                                               monkeypatch):
    """More workers than cores and a 1 µs switch interval; a flusher
    ticking every millisecond against updates of three hot keys; a cache
    small enough to evict dirty slates mid-run. After stop(), every key's
    stored slate is its final in-memory state and holds every update.
    A flush that marked a snapshot clean without checking its version, or
    wrote a snapshot of a slate evicted since, leaves the store behind
    (the first shows most on the 1.0 layout, the second on the pool)."""
    for module in (local_module, local1_module):
        monkeypatch.setattr(module, "CACHE_SLATES", 8)
    rng = random.Random(7)
    hot, cold = ["h0", "h1", "h2"], [f"c{i}" for i in range(40)]
    events = [Event("S1", i * 0.001, rng.choice(hot if rng.random() < 0.5
                                                else cold))
              for i in range(6_000)]
    want = {key: sum(event.key == key for event in events)
            for key in hot + cold}
    app = Application("padded")
    app.add_stream("S1", external=True)
    app.add_updater("U1", PaddedCounter, subscribes=["S1"])
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runtime = layout.build(app.validate(), 4,
                               queue_capacity=len(events),
                               flush_policy=FlushPolicy.every(0.002),
                               flusher_period_s=0.001).start()
        try:
            feeders = [threading.Thread(target=runtime.ingest_many,
                                        args=(events[i::2],))
                       for i in range(2)]
            for feeder in feeders:
                feeder.start()
            for feeder in feeders:
                feeder.join(60.0)
            assert not any(feeder.is_alive() for feeder in feeders)
            assert runtime.drain(timeout=60.0)
            cached = {key: runtime.read_slate("U1", key) for key in want}
        finally:
            runtime.stop()
        assert not any(thread.is_alive() for thread in runtime._threads)
    finally:
        sys.setswitchinterval(previous)
    assert sum(manager.cache.stats.dirty_evictions
               for manager in runtime._managers) > 0
    stored = {key: _stored(runtime, key) for key in want}
    assert stored == cached
    assert {key: slate["count"] for key, slate in stored.items()} == want


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
