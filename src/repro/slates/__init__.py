"""Slate management: codecs, caches, flush policies, and the manager."""

from repro.slates.cache import CacheStats, SlateCache, fragmented_capacity
from repro.slates.codec import (DEFAULT_CODEC, CompressedJsonCodec,
                                JsonCodec, SlateCodec)
from repro.slates.manager import (FlushPolicy, SlateManager,
                                  SlateManagerStats)

__all__ = [
    "CacheStats",
    "CompressedJsonCodec",
    "DEFAULT_CODEC",
    "FlushPolicy",
    "JsonCodec",
    "SlateCache",
    "SlateCodec",
    "SlateManager",
    "SlateManagerStats",
    "fragmented_capacity",
]
