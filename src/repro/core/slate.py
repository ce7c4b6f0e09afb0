"""Slates — the per-(updater, key) memory of a MapUpdate application.

Section 3: a slate ``S(U, k)`` "summarizes all events with key k that an
update function U has seen so far". It is the pair ``<update U, key k>`` that
uniquely determines a slate, not the key alone: two updaters keep independent
slates for the same key.

A slate here is a small mutable mapping (application-defined fields) plus
metadata the runtime needs: time-to-live, last-update time, and a dirty flag
for the flush machinery (Section 4.2). Applications should keep slates small
— "many kilobytes rather than many megabytes" (Section 5); engines can
enforce a cap via ``max_slate_bytes``.

Two hot-path amortizations live here:

* ``version`` — a monotonically increasing mutation counter. Size
  estimates and encoded blobs are cached keyed by it, so repeated
  ``estimated_bytes()`` calls between mutations and repeated flushes of
  an unchanged slate cost one serialization, not many (encode-once).
* a *dirty listener* — :class:`repro.slates.cache.SlateCache` subscribes
  to dirty-flag transitions so it can keep an O(dirty) index instead of
  scanning every resident slate at each flush tick.
"""

from __future__ import annotations

import json
from math import isfinite
from typing import (Any, Callable, Dict, Iterator, NamedTuple, Optional,
                    Tuple)

from repro.core.event import Timestamp
from repro.errors import SlateTooLargeError

#: TTL sentinel meaning "keep forever" — the paper's default.
TTL_FOREVER: Optional[float] = None


#: Key -> what it adds to a flat slate's JSON (its characters, two
#: quotes and a colon), or -1 for a key :func:`_json_size_fast` must
#: refuse. Field names repeat across slates and updates, so each is
#: checked once; cleared wholesale when full, like the routing memos.
_KEY_COSTS: Dict[Any, int] = {}
_KEY_COSTS_MAX = 4096


def _key_cost(key: Any) -> int:
    """Memoize and return ``key``'s :data:`_KEY_COSTS` entry."""
    if (type(key) is not str or not key.isascii() or not key.isprintable()
            or '"' in key or "\\" in key):
        cost = -1
    else:
        cost = len(key) + 3
    if len(_KEY_COSTS) >= _KEY_COSTS_MAX:
        _KEY_COSTS.clear()
    _KEY_COSTS[key] = cost
    return cost


def _json_size_fast(data: Dict[str, Any]) -> int:  # hot-path
    """Exact byte length of ``json.dumps(data, separators=(",", ":"))``
    for flat ``{plain-ASCII str: int or finite float}`` dicts, or ``-1``
    when ``data`` falls outside that shape (the caller then serializes
    for real).

    Counter and score slates — the common case on the update hot path —
    are this shape, and their JSON length is pure arithmetic: ``{`` ``}``
    plus per entry ``"key":repr(value)`` plus commas. The guards are
    strict so the fast and slow paths always agree: keys must be ASCII
    and printable with no ``"`` or ``\\`` (the only printable-ASCII
    characters ``json.dumps`` escapes); values must be exactly ``int``
    or ``float`` (``bool`` serializes as ``true``/``false``, so ``type``
    identity, not ``isinstance``), a float finite (JSON spells ``nan``
    and ``inf`` as ``NaN`` and ``Infinity``). A key's verdict and cost
    come from :data:`_KEY_COSTS`; values are checked on every call.
    """
    n = len(data)
    if n == 0:
        return 2
    # Braces (2) + commas (n - 1); each key's cost adds its quotes and
    # colon.
    size = n + 1
    for k, v in data.items():
        cost = _KEY_COSTS.get(k)
        if cost is None:
            cost = _key_cost(k)
        tv = type(v)
        if cost < 0 or (tv is not int
                        and (tv is not float or not isfinite(v))):
            return -1
        size += cost + len(repr(v))
    return size

#: Reserved blob key holding a slate's per-upstream dedup watermarks
#: (``{origin: highest applied sequence}``) under effectively-once
#: delivery. Lives beside the application fields inside the *same*
#: encoded blob so state and watermarks persist atomically; application
#: field names never collide with it (double-underscore namespace).
WATERMARK_FIELD = "__slate_wm__"


class SlateKey(NamedTuple):
    """The identity of a slate: the pair ``<updater name, event key>``.

    Muppet stores slate ``S(U, k)`` in the key-value store "at row k and
    column U" (Section 4.2); :meth:`row_column` returns exactly that
    addressing. Tuple-backed so the per-update cache lookups hash and
    compare at C speed (slate keys are dict keys in the cache, the dirty
    index and the flush paths).
    """

    updater: str
    key: str

    def row_column(self) -> Tuple[str, str]:
        """Key-value-store address ``(row, column) = (event key, updater)``."""
        return (self.key, self.updater)


class Slate:
    """A live, continuously updated summary for one ``(updater, key)`` pair.

    Behaves as a string-keyed mapping of application fields. The runtime
    tracks ``dirty`` (changed since last flush to the key-value store) and
    ``last_update_ts`` (drives TTL garbage collection).

    Attributes:
        slate_key: Identity ``<updater, key>``.
        ttl: Seconds after the last update when the slate may be garbage
            collected (``None`` = forever, the default; Section 3/4.2).
        created_ts: Timestamp of first initialization.
        last_update_ts: Timestamp of the most recent write.
    """

    __slots__ = ("slate_key", "ttl", "created_ts", "last_update_ts",
                 "_dirty", "_data", "_version", "_dirty_listener",
                 "_enc_version", "_enc_blob",
                 "_size_version", "_size_bytes", "_watermarks")

    def __init__(
        self,
        slate_key: SlateKey,
        data: Optional[Dict[str, Any]] = None,
        ttl: Optional[float] = TTL_FOREVER,
        created_ts: Timestamp = 0.0,
    ) -> None:
        self.slate_key = slate_key
        self.ttl = ttl
        self.created_ts = created_ts
        self.last_update_ts = created_ts
        self._dirty = False
        self._version = 0
        self._dirty_listener: Optional[Callable[["Slate", bool], None]] = None
        self._enc_version = -1
        self._enc_blob: Optional[bytes] = None
        self._size_version = -1
        self._size_bytes = 0
        self._data: Dict[str, Any] = dict(data) if data else {}
        #: Per-upstream dedup watermarks (effectively-once delivery);
        #: None until the first advance keeps non-dedup blobs identical.
        self._watermarks: Optional[Dict[str, int]] = None

    # -- dirty tracking ----------------------------------------------------
    @property
    def dirty(self) -> bool:
        """True when the slate changed since its last flush."""
        return self._dirty

    @dirty.setter
    def dirty(self, value: bool) -> None:
        value = bool(value)
        if value:
            # Every dirtying counts as a mutation, even a re-dirty of an
            # already-dirty slate: callers that mutate nested values in
            # place mark dirty afterwards, and the version-keyed caches
            # must not serve the pre-mutation blob.
            self._version += 1
        if value == self._dirty:
            return
        self._dirty = value
        if self._dirty_listener is not None:
            self._dirty_listener(self, value)

    @property
    def version(self) -> int:
        """Mutation counter; bumps on every write or dirty-marking."""
        return self._version

    def set_dirty_listener(
            self, listener: Optional[Callable[["Slate", bool], None]]
    ) -> None:
        """Subscribe to dirty-flag transitions (cache bookkeeping hook).

        At most one listener is supported — a slate is resident in at
        most one cache. Pass ``None`` to detach.
        """
        self._dirty_listener = listener

    # -- mapping protocol -------------------------------------------------
    def __getitem__(self, field_name: str) -> Any:
        return self._data[field_name]

    def __setitem__(self, field_name: str, value: Any) -> None:
        self._data[field_name] = value
        # inlines: repro.core.slate:Slate.dirty
        self._version += 1
        if not self._dirty:
            self._dirty = True
            if self._dirty_listener is not None:
                self._dirty_listener(self, True)

    def __delitem__(self, field_name: str) -> None:
        del self._data[field_name]
        self.dirty = True

    def __contains__(self, field_name: str) -> bool:
        return field_name in self._data

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def get(self, field_name: str, default: Any = None) -> Any:
        """Return a field value, or ``default`` if absent."""
        return self._data.get(field_name, default)

    # -- dedup watermarks (effectively-once delivery) ----------------------
    def watermark(self, origin: str) -> int:
        """Highest applied sequence id from ``origin``; ``-1`` if none.

        A replayed event with ``oseq <= watermark(origin)`` has already
        contributed to this slate (and that contribution is either
        resident here or persisted in the same blob as the watermark),
        so applying it again would double-count.
        """
        if self._watermarks is None:
            return -1
        return self._watermarks.get(origin, -1)

    def advance_watermark(self, origin: str, seq: int) -> None:
        """Record that the event ``(origin, seq)`` was applied.

        Marks the slate dirty (bumping :attr:`version`) so the
        encode-once cache re-serializes: the watermark travels in the
        same blob as the data it guards, which is what makes
        slate+watermark persistence atomic.
        """
        watermarks = self._watermarks
        if watermarks is None:
            watermarks = self._watermarks = {}
        if seq > watermarks.get(origin, -1):
            watermarks[origin] = seq
            self.dirty = True

    def set_watermarks(self, watermarks: Optional[Dict[str, int]]) -> None:
        """Install watermarks decoded from a stored blob (manager use).

        Does not dirty the slate: the caller just read this exact state
        from the store, so cache and store agree.
        """
        self._watermarks = dict(watermarks) if watermarks else None

    # -- runtime hooks -----------------------------------------------------
    def replace(self, data: Dict[str, Any]) -> None:
        """Replace the whole contents — the paper's ``replaceSlate`` call."""
        self._data = dict(data)
        self.dirty = True

    def as_dict(self) -> Dict[str, Any]:
        """A shallow copy of the application fields."""
        return dict(self._data)

    def blob_dict(self) -> Dict[str, Any]:
        """What actually gets serialized to the key-value store.

        The application fields, plus — only when this slate has tracked
        dedup watermarks — the watermark map under the reserved
        :data:`WATERMARK_FIELD` key. Without watermarks this equals
        :meth:`as_dict`, so every pre-existing blob format and byte-level
        determinism guarantee is unchanged.
        """
        if not self._watermarks:
            return self.as_dict()
        data = dict(self._data)
        data[WATERMARK_FIELD] = dict(self._watermarks)
        return data

    def touch(self, ts: Timestamp) -> None:
        """Record a write at time ``ts`` (runtime use)."""
        self.last_update_ts = ts
        # inlines: repro.core.slate:Slate.dirty
        self._version += 1
        if not self._dirty:
            self._dirty = True
            if self._dirty_listener is not None:
                self._dirty_listener(self, True)

    def mark_clean(self) -> None:
        """Clear the dirty flag after a successful flush (runtime use)."""
        if self._dirty:
            self._dirty = False
            if self._dirty_listener is not None:
                self._dirty_listener(self, False)

    def expired(self, now: Timestamp) -> bool:
        """True if the TTL has elapsed since the last update (Section 4.2).

        "Slates that have not been updated (written) for longer than the
        TTL value may be garbage-collected by the key-value store."
        """
        if self.ttl is None:
            return False
        return (now - self.last_update_ts) > self.ttl

    def estimated_bytes(self) -> int:
        """Approximate in-memory/JSON size of the slate contents.

        Cached per :attr:`version`: repeated calls between mutations
        (cost model, size cap, IPC accounting) serialize once.
        """
        if self._size_version == self._version:
            return self._size_bytes
        size = _json_size_fast(self._data)
        if size < 0:
            try:
                size = len(json.dumps(self._data, separators=(",", ":"),
                                      default=str))
            except (TypeError, ValueError):
                size = len(repr(self._data))
        self._size_version = self._version
        self._size_bytes = size
        return size

    def encoded_with(self, codec: Any) -> bytes:
        """The slate contents serialized by ``codec``, cached per version.

        The flush path calls this instead of ``codec.encode(as_dict())``
        so an unchanged slate flushed again (rebalance barrier after a
        periodic flush, eviction after flush) pays zero re-encodes. The
        cache is keyed on the version alone: every caller passes the one
        slate codec, ``repro.slates.codec.DEFAULT_CODEC``.

        The encoded form is :meth:`blob_dict`: application fields plus
        (when present) the dedup watermarks — one write persists both.
        """
        if self._enc_blob is not None and self._enc_version == self._version:
            return self._enc_blob
        blob = codec.encode(self.blob_dict())
        self._enc_version = self._version
        self._enc_blob = blob
        return blob

    def check_size(self, max_slate_bytes: Optional[int]) -> None:
        """Raise :class:`SlateTooLargeError` when over the configured cap."""
        if max_slate_bytes is None:
            return
        size = self.estimated_bytes()
        if size > max_slate_bytes:
            raise SlateTooLargeError(
                f"slate {self.slate_key} is {size} bytes "
                f"(cap {max_slate_bytes}); the paper advises keeping slates "
                "to kilobytes, not megabytes (Section 5)"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Slate({self.slate_key.updater}/{self.slate_key.key}, "
                f"{self._data!r}, dirty={self.dirty})")
