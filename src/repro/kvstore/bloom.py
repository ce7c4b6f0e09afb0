"""Bloom filter for SSTable point reads.

Cassandra attaches a bloom filter to every SSTable so that point reads skip
files that cannot contain the requested row. The paper leans on the same
effect indirectly: "the more times a row is flushed to disk by the store
since its last file compaction, the more files will have to be checked for
the row when it needs to be retrieved" (Section 4.2) — bloom filters are
what keeps that check cheap when the answer is "not here".
"""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Tuple

_PAIR = struct.Struct(">QQ")


def hash_pair(item: str) -> Tuple[int, int]:
    """The two 64-bit hashes every filter derives its bit positions from:
    position ``i`` is ``(h1 + i * h2) % num_bits`` (double hashing of one
    blake2b digest). They depend on the item alone, not on the filter, so
    a caller can hash once and probe, or fill, many filters."""
    h1, h2 = _PAIR.unpack(hashlib.blake2b(item.encode("utf-8"),
                                          digest_size=16).digest())
    return h1, h2 | 1  # odd => full period


class BloomFilter:
    """A classic k-hash bloom filter over strings.

    Args:
        expected_items: Sizing hint; the bit array and hash count are
            derived for roughly ``false_positive_rate`` at this load.
        false_positive_rate: Target false-positive probability.
    """

    def __init__(self, expected_items: int,
                 false_positive_rate: float = 0.01) -> None:
        expected_items = max(1, expected_items)
        if not 0.0 < false_positive_rate < 1.0:
            raise ValueError(
                "false_positive_rate must be in (0,1), got "
                f"{false_positive_rate}"
            )
        ln2 = math.log(2.0)
        bits = math.ceil(-expected_items * math.log(false_positive_rate)
                         / (ln2 * ln2))
        self._num_bits = max(8, bits)
        self._num_hashes = max(1, round((self._num_bits / expected_items)
                                        * ln2))
        self._bits = bytearray((self._num_bits + 7) // 8)
        self._count = 0

    def add(self, item: str) -> None:
        """Insert an item."""
        self.add_hashed(*hash_pair(item))

    def add_hashed(self, h1: int, h2: int) -> None:
        """Insert the item whose :func:`hash_pair` is ``(h1, h2)``."""
        num_bits = self._num_bits
        bits = self._bits
        pos = h1 % num_bits
        step = h2 % num_bits
        for _ in range(self._num_hashes):
            bits[pos >> 3] |= 1 << (pos & 7)
            pos += step
            if pos >= num_bits:
                pos -= num_bits
        self._count += 1

    def might_contain(self, item: str) -> bool:
        """False means definitely absent; True means possibly present."""
        return self.might_contain_hashed(*hash_pair(item))

    def might_contain_hashed(self, h1: int, h2: int) -> bool:
        """:meth:`might_contain` for the item whose :func:`hash_pair` is
        ``(h1, h2)`` — one hash serves every filter probed for a key."""
        num_bits = self._num_bits
        bits = self._bits
        pos = h1 % num_bits
        step = h2 % num_bits
        for _ in range(self._num_hashes):
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            pos += step
            if pos >= num_bits:
                pos -= num_bits
        return True

    def __contains__(self, item: str) -> bool:
        return self.might_contain(item)

    def __len__(self) -> int:
        return self._count

    @property
    def size_bits(self) -> int:
        """The bit-array size (diagnostics)."""
        return self._num_bits

    @property
    def num_hashes(self) -> int:
        """Hash functions applied per item (diagnostics)."""
        return self._num_hashes
