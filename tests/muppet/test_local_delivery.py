"""The threaded engine's per-delivery path: what folding the bookkeeping
into the dispatch-lock holds, the striped slate locks, the targeted
wake-ups and the event-paced flusher must not break. What the path
promises whatever the worker layout runs on both (``self.layout``, and
the ``...PerFunction`` twin of the class); what depends on two-choice
dispatch or the shared cache runs on ``LocalMuppet``."""

import sys
import threading
import time

import pytest

from repro.core import Application, Event, Mapper, Updater
from repro.core.reference import ReferenceExecutor
from repro.muppet import local as local_module
from repro.muppet.local import LocalConfig, LocalMuppet
from repro.muppet.queues import OverflowPolicy
from repro.slates.codec import DEFAULT_CODEC
from repro.slates.manager import FlushPolicy
from tests.conftest import (LAYOUTS, PER_FUNCTION, POOL, CountingUpdater,
                            build_count_app, make_events)

_LOCK_TYPE = type(threading.Lock())


def _locks_held_by(runtime):
    """Lock objects reachable from the engine's attributes (directly, in
    a container, or inside a worker record's condition)."""
    found = set()

    def visit(value, depth):
        if isinstance(value, _LOCK_TYPE):
            found.add(id(value))
        elif isinstance(value, threading.Condition):
            visit(value._lock, depth)
        elif depth and isinstance(value, dict):
            for inner in list(value.values()):
                visit(inner, depth - 1)
        elif depth and isinstance(value, (list, tuple)):
            for inner in value:
                visit(inner, depth - 1)
        elif depth and hasattr(value, "__slots__"):
            for name in value.__slots__:
                visit(getattr(value, name, None), depth - 1)

    for value in vars(runtime).values():
        visit(value, 2)
    return found


class TestSlateLockPopulation:
    def test_distinct_keys_leave_no_locks_behind(self, monkeypatch):
        """10 000 keys through a 100-slate cache: the slates are evicted,
        and no per-key lock may outlive them."""
        app = Application("churn")
        app.add_stream("S1", external=True)
        app.add_updater("U1", CountingUpdater, subscribes=["S1"])
        monkeypatch.setattr(local_module, "CACHE_SLATES", 100)
        config = LocalConfig(num_threads=2)
        with LocalMuppet(app, config) as runtime:
            before = _locks_held_by(runtime)
            for i in range(10_000):
                runtime.ingest(Event("S1", float(i), f"user{i}"))
            assert runtime.drain()
            assert len(runtime.manager.cache.resident()) <= 100
            assert _locks_held_by(runtime) == before
            # Evicted slates went to the store and still read back.
            assert runtime.read_slate("U1", "user0")["count"] == 1


class TestStop:
    layout = POOL

    def test_stop_does_not_wait_out_the_flusher_period(self):
        runtime = self.layout.build(
            build_count_app(), flusher_period_s=5.0,
            flush_policy=FlushPolicy.every(3600.0)).start()
        runtime.ingest_many(make_events(50, keys=5))
        assert runtime.drain()
        assert runtime.store.read("k0", "U1").value is None  # still dirty
        started = time.monotonic()
        runtime.stop()
        assert time.monotonic() - started < 1.0
        assert all(not thread.is_alive() for thread in runtime._threads)
        for key in ("k0", "k1", "k2", "k3", "k4"):
            assert runtime.store.read(key, "U1").value is not None


class TestStopPerFunction(TestStop):
    layout = PER_FUNCTION


class Bounce(Updater):
    """Counts, records the delivery, and forwards while hops remain."""

    def init_slate(self, key):
        return {"count": 0}

    def update(self, ctx, event, slate):
        slate["count"] += 1
        self.config["deliveries"].append(event.key)  # atomic append
        if event.value > 0:
            ctx.publish(self.config["out"], event.key, event.value - 1)


def build_cycle_app(deliveries):
    """S1 -> U1 -> S2 -> U2 -> S3 -> U1 ...: a two-hop cycle."""
    app = Application("cycle")
    app.add_stream("S1", external=True)
    app.add_stream("S2")
    app.add_stream("S3")
    app.add_updater("U1", Bounce, subscribes=["S1", "S3"], publishes=["S2"],
                    config={"deliveries": deliveries, "out": "S2"})
    app.add_updater("U2", Bounce, subscribes=["S2"], publishes=["S3"],
                    config={"deliveries": deliveries, "out": "S3"})
    return app.validate()


class TestDrainAccounting:
    layout = POOL

    def test_drained_means_nothing_in_flight_and_all_counted(self):
        deliveries = []
        hops = 5
        with self.layout.build(build_cycle_app(deliveries), 3) as runtime:
            sent = 0
            for _ in range(3):
                for i in range(200):
                    runtime.ingest(Event("S1", float(sent), f"k{i % 7}",
                                         hops))
                    sent += 1
                assert runtime.drain()
                assert runtime._inflight == 0
                assert all(len(w.queue) == 0 and w.current is None
                           for w in runtime._workers)
                snap = runtime.counters.snapshot()
                assert snap["processed"] == len(deliveries)
                assert snap["processed"] == sent * (hops + 1)
                assert snap["published"] == sent * (hops + 1)
            assert runtime.operator_errors == 0

    def test_hot_key_matches_reference_and_dispatch_adds_up(self):
        events = [Event("S1", i * 0.001, "hot", i) for i in range(20_000)]
        want = ReferenceExecutor(build_count_app()).run(events)
        with self.layout.build(build_count_app(), 4,
                               queue_capacity=100_000) as runtime:
            runtime.ingest_many(events)
            assert runtime.drain()
            assert (runtime.read_slate("U1", "hot")["count"]
                    == want.slates_of("U1")["hot"]["count"] == 20_000)
            stats = runtime.dispatcher.stats
            assert stats.dispatched == 40_000
            assert stats.to_primary + stats.to_secondary == stats.dispatched
            assert runtime.counters.snapshot()["processed"] == 40_000


class TestDrainAccountingPerFunction(TestDrainAccounting):
    layout = PER_FUNCTION


class Burst(Mapper):
    """Emits ``fanout`` events per input — more than a small queue holds."""

    def map(self, ctx, event):
        for i in range(self.config["fanout"]):
            ctx.publish("S2", event.key, i)


class Gate(Updater):
    """Signals that it is running, then waits to be released."""

    def init_slate(self, key):
        return {"count": 0}

    def update(self, ctx, event, slate):
        self.config["entered"].set()
        assert self.config["release"].wait(10.0)
        slate["count"] += 1


def _snapshot(published, processed, dropped=0, diverted=0):
    return {"published": published, "processed": processed,
            "dropped_overflow": dropped, "lost_failure": 0,
            "diverted_overflow_stream": diverted, "throttled": 0,
            "thinned": 0}


#: policy -> (counters, dispatcher decisions) recorded from the engine
#: before its delivery path was rebuilt: 1 worker, capacity 4, 10 items
#: offered while the worker is busy — 4 fit, 6 overflow (and a diverted
#: item finds the same full queue, so it is dropped after all). With a
#: worker per function the overflow stream's updater has a queue of its
#: own: it serves diverted items as fast as its worker takes them.
OVERFLOW_EXPECTED = {
    "drop": (_snapshot(11, 5, dropped=6), 11),
    "divert": (_snapshot(11, 5, dropped=6, diverted=6), 17),
    "throttle": (_snapshot(11, 5, dropped=6), 11),
}
POLICIES = {
    "drop": OverflowPolicy.drop(),
    "divert": OverflowPolicy.divert("S_over"),
    "throttle": OverflowPolicy.throttle(),
}


@pytest.mark.parametrize("kind", sorted(POLICIES))
class TestOverflowAccounting:
    layout = POOL

    def build(self, app, kind):
        return self.layout.build(app, 1, queue_capacity=4,
                                 overflow=POLICIES[kind])

    def check(self, kind, runtime):
        """The recorded counters, less what the overflow updater served;
        returns how many diverted items that was."""
        served = (runtime.read_slate("U_cheap", "k") or {"count": 0})["count"]
        if self.layout is PER_FUNCTION and kind == "divert":
            assert 1 <= served <= 6
        else:
            assert served == 0
        want, dispatched = OVERFLOW_EXPECTED[kind]
        assert runtime.counters.snapshot() == dict(
            want, processed=want["processed"] + served,
            dropped_overflow=want["dropped_overflow"] - served)
        assert runtime.dispatcher.stats.dispatched == dispatched
        return served

    def test_source_overflow(self, kind, monkeypatch):
        # A throttled source gives up at once instead of waiting for the
        # gated worker.
        monkeypatch.setattr(local_module, "THROTTLE_TIMEOUT_S", 0.0)
        entered, release = threading.Event(), threading.Event()
        app = Application("gate")
        app.add_stream("S1", external=True)
        app.add_stream("S_over", overflow=True)
        app.add_updater("U1", Gate, subscribes=["S1"],
                        config={"entered": entered, "release": release})
        app.add_updater("U_cheap", CountingUpdater, subscribes=["S_over"])
        with self.build(app, kind) as runtime:
            try:
                runtime.ingest(Event("S1", 0.0, "k"))
                assert entered.wait(5.0)
                accepted = [runtime.ingest(Event("S1", float(i), "k"))
                            for i in range(1, 11)]
            finally:
                release.set()
            assert runtime.drain()
            served = self.check(kind, runtime)
            assert accepted[:4] == [True] * 4
            assert accepted.count(True) == 4 + served
            assert runtime.read_slate("U1", "k")["count"] == 5

    def test_operator_emits_more_than_the_queue_holds(self, kind):
        app = Application("burst")
        app.add_stream("S1", external=True)
        app.add_stream("S2")
        app.add_stream("S_over", overflow=True)
        app.add_mapper("M1", Burst, subscribes=["S1"], publishes=["S2"],
                       config={"fanout": 10})
        app.add_updater("U1", CountingUpdater, subscribes=["S2"])
        app.add_updater("U_cheap", CountingUpdater, subscribes=["S_over"])
        with self.build(app, kind) as runtime:
            assert runtime.ingest(Event("S1", 0.0, "k"))
            assert runtime.drain()
            self.check(kind, runtime)
            assert runtime.read_slate("U1", "k")["count"] == 4


class TestOverflowAccountingPerFunction(TestOverflowAccounting):
    layout = PER_FUNCTION


class TestThrottledSource:
    layout = POOL

    def test_blocked_source_waits_and_loses_nothing(self):
        entered, release = threading.Event(), threading.Event()
        app = Application("gate")
        app.add_stream("S1", external=True)
        app.add_updater("U1", Gate, subscribes=["S1"],
                        config={"entered": entered, "release": release})
        with self.layout.build(app, 1, queue_capacity=4,
                          overflow=OverflowPolicy.throttle()) as runtime:
            runtime.ingest(Event("S1", 0.0, "k"))
            assert entered.wait(5.0)
            threading.Timer(0.05, release.set).start()
            for i in range(1, 11):
                assert runtime.ingest(Event("S1", float(i), "k"))
            assert runtime.drain()
            snap = runtime.counters.snapshot()
            assert snap["throttled"] >= 1
            assert snap["dropped_overflow"] == 0
            assert snap["processed"] == 11


class TestThrottledSourcePerFunction(TestThrottledSource):
    layout = PER_FUNCTION


class Exploding(Mapper):
    def map(self, ctx, event):
        if event.value % 2:
            raise RuntimeError(f"boom {event.value}")
        ctx.publish("S2", event.key, event.value)


class TestOperatorErrors:
    layout = POOL

    def test_count_and_exception_move_together(self):
        app = Application("explosive")
        app.add_stream("S1", external=True)
        app.add_stream("S2")
        app.add_mapper("M1", Exploding, subscribes=["S1"], publishes=["S2"])
        app.add_updater("U1", CountingUpdater, subscribes=["S2"])
        torn = []
        done = threading.Event()
        with self.layout.build(app) as runtime:

            def watch():
                while not done.is_set():
                    with runtime._dispatch_lock:
                        count = runtime.operator_errors
                        last = runtime.last_error
                    if (count == 0) != (last is None):
                        torn.append((count, last))

            watcher = threading.Thread(target=watch)
            watcher.start()
            try:
                for i in range(400):
                    runtime.ingest(Event("S1", float(i), f"k{i % 3}", i))
                assert runtime.drain()
            finally:
                done.set()
                watcher.join(5.0)
            assert not watcher.is_alive()
            assert torn == []
            assert runtime.operator_errors == 200
            assert isinstance(runtime.last_error, RuntimeError)
            snap = runtime.counters.snapshot()
            # A delivery that raised is an error, not a processed event.
            assert snap["processed"] == 200 + 200
            assert snap["lost_failure"] == 0
            assert runtime._inflight == 0
            # Both workers survived and still take work.
            runtime.ingest(Event("S1", 1000.0, "k0", 1000))
            assert runtime.drain()
            assert all(thread.is_alive() for thread in runtime._threads)


class TestOperatorErrorsPerFunction(TestOperatorErrors):
    layout = PER_FUNCTION


class WindowCount(Updater):
    """Counts events; a timer one second after a key's first event
    records the count seen so far."""

    def init_slate(self, key):
        return {"count": 0, "closed_at": None}

    def update(self, ctx, event, slate):
        if slate["count"] == 0:
            ctx.set_timer(event.ts + 1.0, payload="close")
        slate["count"] += 1

    def on_timer(self, ctx, key, slate, payload):
        slate["closed_at"] = slate["count"]
        self.config["fired"].set()


def settle(runtime, timeout=5.0):
    """Wait for the queues to empty, leaving pending timers pending
    (``drain`` fires them)."""
    with runtime._drained:
        return runtime._drained.wait_for(lambda: not runtime._inflight,
                                         timeout)


class _CountingCondition(threading.Condition):
    notified = 0

    def notify_all(self):
        self.notified += 1
        super().notify_all()


class TestTimers:
    layout = POOL

    def build(self, fired):
        app = Application("window")
        app.add_stream("S1", external=True)
        app.add_updater("U1", WindowCount, subscribes=["S1"],
                        config={"fired": fired})
        return app.validate()

    def test_watermark_fires_a_pending_timer_without_drain(self):
        fired = threading.Event()
        with self.layout.build(self.build(fired)) as runtime:
            runtime.ingest(Event("S1", 0.0, "k"))
            runtime.ingest(Event("S1", 0.5, "k"))
            assert settle(runtime)
            assert not fired.is_set()
            runtime.ingest(Event("S1", 2.0, "other"))  # passes at_ts=1.0
            assert fired.wait(5.0)
            assert settle(runtime)
            assert runtime.read_slate("U1", "k")["closed_at"] == 2
            # "other" still has its own timer pending; drain() fires it.
            assert runtime.drain()
            assert runtime.read_slate("U1", "other")["closed_at"] == 1

    def test_ingest_leaves_the_timer_condition_alone_without_timers(self):
        runtime = self.layout.build(build_count_app())
        runtime._timer_cond = _CountingCondition(threading.Lock())
        with runtime:
            runtime.ingest_many(make_events(100))
            assert runtime.drain()
            assert runtime._timer_cond.notified == 0


class TestTimersPerFunction(TestTimers):
    layout = PER_FUNCTION


class TestWakeUps:
    def test_every_worker_wakes_for_its_own_queue(self):
        """Targeted wake-ups: sparse traffic over many keys reaches every
        queue while its worker is parked, and nothing is left waiting."""
        with LocalMuppet(build_count_app(),
                         LocalConfig(num_threads=4)) as runtime:
            for round_no in range(20):
                for i in range(16):
                    runtime.ingest(Event("S1", round_no + i * 0.01,
                                         f"k{i}"))
                assert runtime.drain(timeout=10.0)
                assert all(worker.parked or not len(worker.queue)
                           for worker in runtime._workers)
            total = sum(slate["count"] for slate in
                        runtime.read_slates_of("U1").values())
            assert total == 320
            assert all(queue_worker.queue.stats.accepted > 0
                       for queue_worker in runtime._workers)


def test_stress_short_switch_interval_loses_no_update():
    """More workers than cores, a 10 µs switch interval: a lost counter
    update or a torn slate would break the totals."""
    import sys

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        events = make_events(3_000, keys=6)
        with LocalMuppet(build_count_app(),
                         LocalConfig(num_threads=8)) as runtime:
            feeders = [threading.Thread(target=runtime.ingest_many,
                                        args=(events[i::3],))
                       for i in range(3)]
            for feeder in feeders:
                feeder.start()
            for feeder in feeders:
                feeder.join(30.0)
            assert not any(feeder.is_alive() for feeder in feeders)
            assert runtime.drain(timeout=30.0)
            snap = runtime.counters.snapshot()
            assert snap["published"] == snap["processed"] == 6_000
            counts = runtime.read_slates_of("U1")
            assert sum(s["count"] for s in counts.values()) == 3_000
            assert runtime._inflight == 0
    finally:
        sys.setswitchinterval(previous)


@LAYOUTS
def test_store_is_current_after_stop_under_a_racing_flusher(layout):
    """A flusher ticking every half millisecond against workers updating
    the same slates: a flush that encoded one version of a slate and
    cleared the dirty flag of the next would leave the store behind the
    cache after drain() + stop()."""
    app = Application("flushed")
    app.add_stream("S1", external=True)
    app.add_updater("U1", CountingUpdater, subscribes=["S1"])
    keys = [f"k{i}" for i in range(50)]
    events = [Event("S1", i * 0.001, keys[i % 50]) for i in range(20_000)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            runtime = layout.build(app, queue_capacity=len(events),
                                   flush_policy=FlushPolicy.every(0.001),
                                   flusher_period_s=0.0005).start()
            try:
                assert runtime.ingest_many(events) == len(events)
                assert runtime.drain(timeout=60.0)
                cached = {key: runtime.read_slate("U1", key) for key in keys}
            finally:
                runtime.stop()
            stored = {key: DEFAULT_CODEC.decode(
                runtime.store.read(key, "U1").value) for key in keys}
            assert stored == cached
            assert {slate["count"] for slate in stored.values()} == {400}
    finally:
        sys.setswitchinterval(previous)


def test_cache_counts_of_plain_and_ttl_hits():
    """One worker, a plain updater and a ``slate_ttl`` one: the cache's
    hits and misses and the manager's TTL resets and initializations
    equal those recorded when the engine served a plain hit itself and
    handed a TTL slate to the manager (which now serves both). The
    manager's clock stands still past every event time, so each TTL hit
    finds its slate expired, and no interval flush falls in the run."""
    app = Application("ttl-counts")
    app.add_stream("S1", external=True)
    app.add_updater("U1", CountingUpdater, subscribes=["S1"])
    app.add_updater("T1", CountingUpdater, subscribes=["S1"],
                    config={"slate_ttl": 1.0})
    runtime = LocalMuppet(app, LocalConfig(
        num_threads=1, flush_policy=FlushPolicy.every(3600.0)))
    runtime.manager.clock = lambda: 1e6
    with runtime:
        runtime.ingest_many(make_events(200, keys=7))
        assert runtime.drain()
    stats, cache = runtime.manager.stats, runtime.manager.cache.stats
    assert (cache.hits, cache.misses, stats.ttl_resets,
            stats.initialized) == (386, 14, 193, 207)
