"""Slate caches: LRU behaviour, eviction callbacks, fragmentation math."""

import pytest

from repro.core.slate import Slate, SlateKey
from repro.errors import ConfigurationError
from repro.slates.cache import SlateCache, fragmented_capacity


def slate(key: str, updater: str = "U1", **data) -> Slate:
    s = Slate(SlateKey(updater, key))
    for field, value in data.items():
        s[field] = value
    return s


class TestLRU:
    def test_put_get(self):
        cache = SlateCache(capacity=2)
        s = slate("a")
        cache.put(s)
        assert cache.get(s.slate_key) is s

    def test_miss_returns_none_and_counts(self):
        cache = SlateCache(capacity=2)
        assert cache.get(SlateKey("U1", "nope")) is None
        assert cache.stats.misses == 1

    def test_lru_eviction_order(self):
        cache = SlateCache(capacity=2)
        a, b, c = slate("a"), slate("b"), slate("c")
        cache.put(a)
        cache.put(b)
        cache.get(a.slate_key)   # a is now most recent
        cache.put(c)             # evicts b
        assert b.slate_key not in cache
        assert a.slate_key in cache and c.slate_key in cache

    def test_capacity_enforced(self):
        cache = SlateCache(capacity=3)
        for i in range(10):
            cache.put(slate(f"k{i}"))
        assert len(cache) == 3
        assert cache.stats.evictions == 7

    def test_re_put_refreshes_not_duplicates(self):
        cache = SlateCache(capacity=2)
        s = slate("a")
        cache.put(s)
        cache.put(s)
        assert len(cache) == 1

    def test_peek_does_not_touch_lru_or_stats(self):
        cache = SlateCache(capacity=2)
        a, b = slate("a"), slate("b")
        cache.put(a)
        cache.put(b)
        cache.peek(a.slate_key)     # does not promote a
        cache.put(slate("c"))       # evicts a (still LRU)
        assert a.slate_key not in cache
        assert cache.stats.hits == 0

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            SlateCache(capacity=0)


class TestEvictionCallback:
    def test_dirty_victims_reported(self):
        flushed = []
        cache = SlateCache(capacity=1, on_evict=flushed.append)
        dirty = slate("a", count=1)   # setting a field marks dirty
        cache.put(dirty)
        cache.put(slate("b"))
        assert flushed == [dirty]
        assert cache.stats.dirty_evictions == 1

    def test_clean_victims_also_reported_but_not_counted_dirty(self):
        seen = []
        cache = SlateCache(capacity=1, on_evict=seen.append)
        clean = slate("a")
        cache.put(clean)
        cache.put(slate("b"))
        assert seen == [clean]
        assert cache.stats.dirty_evictions == 0

    def test_remove_skips_callback(self):
        seen = []
        cache = SlateCache(capacity=2, on_evict=seen.append)
        s = slate("a", x=1)
        cache.put(s)
        assert cache.remove(s.slate_key) is s
        assert seen == []

    def test_clear_skips_callback(self):
        """Crash semantics: unflushed changes are simply lost (§4.3)."""
        seen = []
        cache = SlateCache(capacity=5, on_evict=seen.append)
        cache.put(slate("a", x=1))
        cache.clear()
        assert seen == [] and len(cache) == 0


class TestIntrospection:
    def test_resident_lru_first(self):
        cache = SlateCache(capacity=3)
        for name in ("a", "b", "c"):
            cache.put(slate(name))
        cache.get(SlateKey("U1", "a"))
        assert [k.key for k in cache.resident()] == ["b", "c", "a"]

    def test_dirty_slates_filter(self):
        cache = SlateCache(capacity=3)
        cache.put(slate("clean"))
        cache.put(slate("dirty", x=1))
        assert [s.slate_key.key for s in cache.dirty_slates()] == ["dirty"]

    def test_total_bytes(self):
        cache = SlateCache(capacity=3)
        cache.put(slate("a", blob="x" * 1000))
        assert cache.total_bytes() > 1000


class TestFragmentedCapacity:
    def test_papers_125_vs_100_example(self):
        """Section 4.5: 100-slate working set, 5 workers, worst worker
        gets 25 hot slates → 25 per worker → 125 total, not 100."""
        per_worker = fragmented_capacity(working_set=100, workers=5,
                                         observed_max_share=0.25)
        assert per_worker == 25
        assert per_worker * 5 == 125

    def test_even_split_needs_no_overhead(self):
        per_worker = fragmented_capacity(100, 5, observed_max_share=0.20)
        assert per_worker * 5 == 100

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            fragmented_capacity(100, 0, 0.2)
        with pytest.raises(ConfigurationError):
            fragmented_capacity(100, 5, 0.0)
