"""SlateManager: cache→store→init fetch path, flush policies, crash loss."""

import itertools

import pytest

from repro.core.operators import Updater
from repro.errors import (ConfigurationError, SlateTooLargeError,
                          StoreError)
from repro.kvstore.cluster import ReplicatedKVStore
from repro.slates.manager import KV_MAX_ATTEMPTS, FlushPolicy, SlateManager


class CountUpdater(Updater):
    def init_slate(self, key):
        return {"count": 0}

    def update(self, ctx, event, slate):
        slate["count"] += 1


def make_env(cache_capacity=100, flush_policy=None, ttl=None,
             max_slate_bytes=None, store_nodes=2):
    counter = itertools.count()
    clock = lambda: float(next(counter))
    store = ReplicatedKVStore([f"n{i}" for i in range(store_nodes)],
                              replication_factor=min(2, store_nodes),
                              clock=clock)
    manager = SlateManager(
        store, cache_capacity=cache_capacity,
        flush_policy=flush_policy or FlushPolicy.write_through(),
        clock=clock, max_slate_bytes=max_slate_bytes)
    updater = CountUpdater(name="U1")
    if ttl is not None:
        updater.slate_ttl = ttl
    return manager, updater, clock


class TestFetchPath:
    def test_first_access_initializes(self):
        manager, updater, _ = make_env()
        slate = manager.get(updater, "k")
        assert slate["count"] == 0
        assert manager.stats.initialized == 1
        assert manager.stats.kv_read_misses == 1

    def test_second_access_hits_cache(self):
        manager, updater, _ = make_env()
        first = manager.get(updater, "k")
        assert manager.get(updater, "k") is first
        assert manager.cache.stats.hits == 1

    def test_evicted_slate_refetched_from_store(self):
        """Section 4.2's full loop: cache miss → store read → decompress."""
        manager, updater, clock = make_env(cache_capacity=1)
        slate = manager.get(updater, "hot")
        slate["count"] = 41
        slate.touch(clock())
        manager.note_update(slate)            # write-through persists
        manager.get(updater, "other")          # evicts "hot"
        refetched = manager.get(updater, "hot")
        assert refetched["count"] == 41
        assert refetched is not slate

    def test_separate_updaters_separate_slates(self):
        manager, updater, _ = make_env()
        other = CountUpdater(name="U2")
        a = manager.get(updater, "k")
        b = manager.get(other, "k")
        assert a is not b
        assert a.slate_key != b.slate_key


class TestFlushPolicies:
    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            FlushPolicy(kind="sometimes")
        with pytest.raises(ConfigurationError):
            FlushPolicy(kind="interval", interval_s=0)

    def test_every_zero_rejected_with_guidance(self):
        """FlushPolicy.every(0) is a classic misconfiguration — the
        error must name the alternatives."""
        with pytest.raises(ConfigurationError,
                           match="must be positive.*write_through"):
            FlushPolicy.every(0)
        with pytest.raises(ConfigurationError, match="must be positive"):
            FlushPolicy.every(-1.5)

    def test_write_through_persists_every_update(self):
        manager, updater, clock = make_env(
            flush_policy=FlushPolicy.write_through())
        slate = manager.get(updater, "k")
        for i in range(5):
            slate["count"] += 1
            slate.touch(clock())
            manager.note_update(slate)
        assert manager.stats.kv_writes == 5
        assert not slate.dirty

    def test_on_evict_writes_only_at_eviction(self):
        manager, updater, clock = make_env(
            cache_capacity=1, flush_policy=FlushPolicy.on_evict())
        slate = manager.get(updater, "a")
        slate["count"] = 3
        slate.touch(clock())
        manager.note_update(slate)
        assert manager.stats.kv_writes == 0  # still only dirty in cache
        manager.get(updater, "b")            # evicts "a" → flush
        assert manager.stats.kv_writes == 1

    def test_interval_policy_flushes_when_due(self):
        manager, updater, clock = make_env(
            flush_policy=FlushPolicy.every(5.0))
        slate = manager.get(updater, "k")
        slate["count"] = 1
        slate.touch(clock())
        manager.note_update(slate)
        assert manager.stats.kv_writes == 0
        # Clock advances 1.0 per call; run it past the interval.
        flushed = 0
        for _ in range(10):
            flushed += manager.flush_due()
        assert flushed == 1
        assert manager.stats.kv_writes == 1

    def test_flush_all_dirty(self):
        manager, updater, clock = make_env(
            flush_policy=FlushPolicy.on_evict())
        for key in ("a", "b", "c"):
            slate = manager.get(updater, key)
            slate["count"] = 1
            slate.touch(clock())
            manager.note_update(slate)
        assert manager.flush_all_dirty() == 3
        assert manager.stats.kv_writes == 3


class TestTTL:
    def test_expired_cached_slate_reinitializes(self):
        manager, updater, clock = make_env(ttl=2.0)
        slate = manager.get(updater, "k")
        slate["count"] = 9
        slate.touch(clock())
        for _ in range(10):   # let the clock pass the TTL
            clock()
        fresh = manager.get(updater, "k")
        assert fresh["count"] == 0
        assert manager.stats.ttl_resets >= 1


class TestCrash:
    def test_crash_loses_dirty_slates(self):
        """Section 4.3: unflushed slate changes are lost on failure."""
        manager, updater, clock = make_env(
            flush_policy=FlushPolicy.on_evict())
        slate = manager.get(updater, "k")
        slate["count"] = 5
        slate.touch(clock())
        manager.note_update(slate)
        lost = manager.crash()
        assert lost == 1
        fresh = manager.get(updater, "k")
        assert fresh["count"] == 0  # nothing reached the store

    def test_crash_preserves_flushed_state(self):
        manager, updater, clock = make_env(
            flush_policy=FlushPolicy.write_through())
        slate = manager.get(updater, "k")
        slate["count"] = 5
        slate.touch(clock())
        manager.note_update(slate)
        manager.crash()
        assert manager.get(updater, "k")["count"] == 5


class TestLimitsAndIO:
    def test_slate_size_cap_enforced(self):
        manager, updater, clock = make_env(max_slate_bytes=100)
        slate = manager.get(updater, "k")
        slate["blob"] = "x" * 1000
        slate.touch(clock())
        with pytest.raises(SlateTooLargeError):
            manager.note_update(slate)

    def test_pending_io_accumulates_and_drains(self):
        manager, updater, clock = make_env()
        slate = manager.get(updater, "k")
        slate["count"] = 1
        slate.touch(clock())
        manager.note_update(slate)
        assert manager.pending_io_s > 0
        assert manager.take_pending_io() > 0
        assert manager.take_pending_io() == 0.0

    def test_store_none_keeps_slates_volatile(self):
        manager = SlateManager(store=None, cache_capacity=1)
        updater = CountUpdater(name="U1")
        slate = manager.get(updater, "a")
        slate["count"] = 7
        manager.note_update(slate)
        manager.get(updater, "b")  # evicts "a"; nowhere to persist
        assert manager.get(updater, "a")["count"] == 0


class FlakyStore:
    """A store facade that fails its first ``fail_n`` calls."""

    def __init__(self, store, fail_n):
        self._store = store
        self.fail_n = fail_n
        self.calls = 0

    def _maybe_fail(self):
        self.calls += 1
        if self.calls <= self.fail_n:
            raise StoreError("transient")

    def read(self, *args, **kwargs):
        self._maybe_fail()
        return self._store.read(*args, **kwargs)

    def write(self, *args, **kwargs):
        self._maybe_fail()
        return self._store.write(*args, **kwargs)


def make_flaky_env(fail_n, flush_policy=None):
    manager, updater, clock = make_env(
        flush_policy=flush_policy or FlushPolicy.write_through())
    manager.store = FlakyStore(manager.store, fail_n)
    return manager, updater, clock


class TestRetryPolicy:
    def test_transient_error_retried_with_backoff(self):
        manager, updater, clock = make_flaky_env(fail_n=2)
        slate = manager.get(updater, "k")  # read: 2 failures, then ok
        assert slate["count"] == 0
        assert manager.stats.kv_retries == 2
        # Exponential backoff: 0.002 + 0.004, charged as virtual I/O.
        assert manager.stats.kv_backoff_s == pytest.approx(0.006)
        assert manager.pending_io_s >= 0.006
        assert manager.stats.fail_open_reads == 0

    def test_fail_open_read_degrades_to_miss(self):
        manager, updater, clock = make_flaky_env(fail_n=100)
        slate = manager.get(updater, "k")  # every attempt fails
        assert slate["count"] == 0  # initialized, not raised
        assert manager.stats.fail_open_reads == 1
        assert manager.stats.kv_retries == KV_MAX_ATTEMPTS - 1
        # Every wait doubled: 0.002 + 0.004 + 0.008.
        assert manager.stats.kv_backoff_s == pytest.approx(0.014)

    def test_fail_open_write_leaves_slate_dirty(self):
        manager, updater, clock = make_flaky_env(fail_n=0)
        slate = manager.get(updater, "k")
        manager.store.fail_n = 100
        slate["count"] = 1
        slate.touch(clock())
        manager.note_update(slate)  # write-through flush fails open
        assert manager.stats.fail_open_writes == 1
        assert slate.dirty  # kept for the next flush cycle
        manager.store.fail_n = manager.store.calls  # store heals
        assert manager.flush_all_dirty() == 1
        assert not slate.dirty
        assert manager.stats.kv_writes == 1

    def test_revive_counts_rehydrated_fetches(self):
        manager, updater, clock = make_env(
            flush_policy=FlushPolicy.write_through())
        slate = manager.get(updater, "k")
        slate["count"] = 3
        slate.touch(clock())
        manager.note_update(slate)
        manager.crash()
        assert manager.stats.rehydrated == 0
        manager.revive()
        assert manager.get(updater, "k")["count"] == 3  # from the store
        assert manager.stats.rehydrated == 1


class TestWatermarkPersistence:
    """Dedup watermarks persist atomically with the slate fields."""

    def test_watermarks_round_trip_through_store(self):
        manager, updater, _ = make_env(
            cache_capacity=1, flush_policy=FlushPolicy.write_through())
        slate = manager.get(updater, "k1")
        slate["count"] = 5
        slate.advance_watermark("S1>M1", 41)
        manager.note_update(slate)
        # Evict by touching a second key (capacity 1), then refetch.
        other = manager.get(updater, "k2")
        other["count"] = 1
        manager.note_update(other)
        refetched = manager.get(updater, "k1")
        assert refetched is not slate
        assert refetched["count"] == 5
        assert refetched.watermark("S1>M1") == 41
        # The reserved field never leaks into the application view.
        assert refetched.as_dict() == {"count": 5}

    def test_refetched_slate_without_watermarks_has_none(self):
        manager, updater, _ = make_env(
            cache_capacity=1, flush_policy=FlushPolicy.write_through())
        slate = manager.get(updater, "k1")
        slate["count"] = 2
        manager.note_update(slate)
        other = manager.get(updater, "k2")
        other["count"] = 1
        manager.note_update(other)
        refetched = manager.get(updater, "k1")
        assert refetched._watermarks is None
        assert refetched.watermark("anything") == -1

    def test_unflushed_watermark_reverts_with_crash(self):
        """Atomicity both ways: losing unflushed state also loses the
        watermark advance, so the replayed event re-applies instead of
        being wrongly deduped."""
        manager, updater, _ = make_env(
            cache_capacity=10, flush_policy=FlushPolicy.every(100.0))
        slate = manager.get(updater, "k1")
        slate["count"] = 1
        slate.advance_watermark("S1", 7)
        manager.note_update(slate)
        manager.flush_all_dirty()          # durable: count=1, wm=7
        slate["count"] = 2
        slate.advance_watermark("S1", 8)   # dirty, never flushed
        manager.note_update(slate)
        manager.crash()
        manager.revive()
        refetched = manager.get(updater, "k1")
        assert refetched["count"] == 1
        assert refetched.watermark("S1") == 7   # 8 reverted with count=2
