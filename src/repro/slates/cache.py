"""Slate caches: per-worker (Muppet 1.0) and central (Muppet 2.0).

Section 4.5's third limitation of Muppet 1.0 is cache fragmentation: "Each
worker on a machine maintains its own slate ... Because the keys of the
popular slates may be hashed unevenly among them (for example, one of the
five updaters might get 25 of the popular slates, not 20), we have to
configure a larger slate cache per updater (e.g., 25 slates each and not
20) to cache the same working set (yielding a larger total slate cache of
125 slates instead of 100)." Muppet 2.0 keeps "a single 'central' slate
cache". Bench E3 quantifies exactly this with :class:`SlateCache` instances
in both arrangements.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.slate import Slate, SlateKey
from repro.errors import ConfigurationError
from repro.obs.registry import CounterFields

#: Called with each slate evicted while dirty, so the owner can flush it.
EvictionCallback = Callable[[Slate], None]


@dataclass(slots=True)
class CacheStats(CounterFields):
    """Hit/miss/eviction counters for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0


class SlateCache:
    """An LRU cache of :class:`Slate` objects with eviction callbacks.

    Capacity is measured in slates, matching how the paper discusses
    working sets ("a working set of 100 popular slates"). A byte budget can
    be layered on by the caller via :meth:`total_bytes`.

    Args:
        capacity: Maximum resident slates (>= 1).
        on_evict: Invoked for every evicted slate *before* removal; owners
            use it to flush dirty slates to the key-value store
            ("only when evicted from cache" flush policy, Section 4.2).
    """

    def __init__(self, capacity: int,
                 on_evict: Optional[EvictionCallback] = None) -> None:
        if capacity < 1:
            raise ConfigurationError("cache capacity must be >= 1, "
                                     f"got {capacity}")
        self.capacity = capacity
        self._on_evict = on_evict
        self._slates: "OrderedDict[SlateKey, Slate]" = OrderedDict()
        #: Incremental dirty index (first-dirtied order, deterministic):
        #: resident slates whose dirty flag is set, maintained via each
        #: slate's dirty listener so flush passes are O(dirty slates)
        #: instead of O(resident slates).
        self._dirty_index: "OrderedDict[SlateKey, Slate]" = OrderedDict()
        self.stats = CacheStats()

    def _dirty_changed(self, slate: Slate, is_dirty: bool) -> None:
        if is_dirty:
            self._dirty_index[slate.slate_key] = slate
        else:
            self._dirty_index.pop(slate.slate_key, None)

    def _adopt(self, slate: Slate) -> None:
        slate.set_dirty_listener(self._dirty_changed)
        if slate.dirty:
            self._dirty_index[slate.slate_key] = slate

    def _orphan(self, slate: Slate) -> None:
        slate.set_dirty_listener(None)
        self._dirty_index.pop(slate.slate_key, None)

    def get(self, slate_key: SlateKey) -> Optional[Slate]:
        """Fetch and LRU-touch a resident slate; None on miss."""
        slate = self._slates.get(slate_key)
        if slate is None:
            self.stats.misses += 1
            return None
        self._slates.move_to_end(slate_key)
        self.stats.hits += 1
        return slate

    def peek(self, slate_key: SlateKey) -> Optional[Slate]:
        """Fetch without touching LRU order or stats (HTTP reads use this
        for status probes; normal reads should use :meth:`get`)."""
        return self._slates.get(slate_key)

    def put(self, slate: Slate) -> None:
        """Insert (or refresh) a slate, evicting LRU victims if needed."""
        key = slate.slate_key
        existing = self._slates.get(key)
        if existing is not None:
            if existing is not slate:
                self._orphan(existing)
                self._adopt(slate)
            self._slates[key] = slate
            self._slates.move_to_end(key)
            return
        while len(self._slates) >= self.capacity:
            self._evict_lru()
        self._adopt(slate)
        self._slates[key] = slate

    def _evict_lru(self) -> None:
        victim_key, victim = self._slates.popitem(last=False)
        self.stats.evictions += 1
        if victim.dirty:
            self.stats.dirty_evictions += 1
        self._orphan(victim)
        if self._on_evict is not None:
            self._on_evict(victim)

    def remove(self, slate_key: SlateKey) -> Optional[Slate]:
        """Drop a slate without invoking the eviction callback."""
        slate = self._slates.pop(slate_key, None)
        if slate is not None:
            self._orphan(slate)
        return slate

    def __len__(self) -> int:
        return len(self._slates)

    def __contains__(self, slate_key: SlateKey) -> bool:
        return slate_key in self._slates

    def resident(self) -> List[SlateKey]:
        """Keys currently cached, LRU-first."""
        return list(self._slates)

    def dirty_slates(self) -> List[Slate]:
        """All resident slates with unflushed changes.

        Served from the incremental dirty index — O(dirty), not
        O(resident) — in first-dirtied order (deterministic). The index
        is copied in one C call first: a threaded engine's workers may
        dirty slates while its flusher asks.
        """
        return [s for s in list(self._dirty_index.values()) if s._dirty]

    def dirty_count(self) -> int:
        """Resident slates with unflushed changes (O(1))."""
        return len(self._dirty_index)

    def total_bytes(self) -> int:
        """Approximate memory held by resident slates."""
        return sum(s.estimated_bytes() for s in self._slates.values())

    def clear(self) -> None:
        """Drop everything without callbacks (e.g. on simulated crash —
        unflushed changes are lost, as in Section 4.3)."""
        for slate in self._slates.values():
            slate.set_dirty_listener(None)
        self._slates.clear()
        self._dirty_index.clear()


def fragmented_capacity(working_set: int, workers: int,
                        observed_max_share: float) -> int:
    """Per-worker cache size needed to hold a shared working set.

    The paper's example: a 100-slate working set over 5 workers needs 25
    slates per worker (not 20) when hashing sends one worker 25 of the hot
    slates — 125 cache slots in total instead of 100. Given the observed
    maximum share any worker receives (e.g. 0.25), this returns the
    per-worker capacity that still captures the whole working set.
    """
    if workers < 1:
        raise ConfigurationError("workers must be >= 1")
    if not 0.0 < observed_max_share <= 1.0:
        raise ConfigurationError("observed_max_share must be in (0, 1]")
    import math

    return math.ceil(working_set * observed_max_share)
