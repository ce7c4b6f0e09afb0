"""Zipfian sampling — the key-skew model behind hotspots (Section 5).

"The distribution of event keys can be strongly skewed (e.g., follow a
Zipfian distribution). Consequently, updaters can receive widely varying
loads, and an updater that receives an overwhelming load can potentially
become a hotspot." All workload generators draw users, venues, topics, and
URLs from :class:`ZipfSampler` so benches E4/E5 exercise exactly that skew.
"""

from __future__ import annotations

import bisect
import random
from typing import List

from repro.errors import ConfigurationError


class ZipfSampler:
    """Samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s.

    Deterministic given the seed; rank 0 is the most popular item.

    Args:
        n: Population size.
        exponent: Skew parameter ``s``; 0 = uniform, ~1 = classic Zipf,
            larger = more skewed.
        seed: Seed for the private RNG.
    """

    def __init__(self, n: int, exponent: float = 1.0, seed: int = 0) -> None:
        if n < 1:
            raise ConfigurationError(f"population must be >= 1, got {n}")
        if exponent < 0:
            raise ConfigurationError(f"exponent must be >= 0, got {exponent}")
        self.n = n
        self.exponent = exponent
        self._rng = random.Random(seed)
        weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for weight in weights:
            acc += weight / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against float drift

    def sample(self) -> int:
        """Draw one rank."""
        return bisect.bisect_left(self._cdf, self._rng.random())


def zipf_key_fn(prefix: str, n: int, exponent: float = 1.0,
                seed: int = 0):
    """A source ``key_fn`` drawing Zipf-skewed keys like ``"user17"``.

    Convenience for :mod:`repro.sim.sources`: the returned callable
    ignores its index argument and samples the Zipf distribution.
    """
    sampler = ZipfSampler(n, exponent, seed)

    def key_fn(_: int) -> str:
        return f"{prefix}{sampler.sample()}"

    return key_fn
