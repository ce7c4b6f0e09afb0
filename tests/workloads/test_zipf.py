"""Zipf sampling: determinism and skew."""

from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.workloads.zipf import ZipfSampler, zipf_key_fn


def draws(sampler, count):
    return [sampler.sample() for _ in range(count)]


class TestZipfSampler:
    def test_seeded_determinism(self):
        a = draws(ZipfSampler(100, 1.0, seed=5), 500)
        b = draws(ZipfSampler(100, 1.0, seed=5), 500)
        assert a == b

    def test_different_seeds_differ(self):
        a = draws(ZipfSampler(100, 1.0, seed=1), 100)
        b = draws(ZipfSampler(100, 1.0, seed=2), 100)
        assert a != b

    def test_ranks_in_range(self):
        sampler = ZipfSampler(10, 1.5, seed=0)
        assert all(0 <= r < 10 for r in draws(sampler, 1000))

    def test_rank_zero_is_most_popular(self):
        counts = Counter(draws(ZipfSampler(50, 1.2, seed=3), 5000))
        assert counts[0] == max(counts.values())

    def test_higher_exponent_more_skewed(self):
        mild = Counter(draws(ZipfSampler(100, 0.5, seed=0), 5000))
        harsh = Counter(draws(ZipfSampler(100, 2.0, seed=0), 5000))
        assert harsh[0] > mild[0]

    def test_zero_exponent_is_roughly_uniform(self):
        counts = Counter(draws(ZipfSampler(10, 0.0, seed=0), 10_000))
        assert min(counts.values()) > 700  # each ~1000 expected

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ZipfSampler(0)
        with pytest.raises(ConfigurationError):
            ZipfSampler(10, exponent=-1.0)


class TestZipfKeyFn:
    def test_produces_prefixed_keys(self):
        key_fn = zipf_key_fn("user", 100, seed=0)
        key = key_fn(0)
        assert key.startswith("user")
        assert 0 <= int(key[4:]) < 100

    def test_deterministic_sequence(self):
        a = [zipf_key_fn("u", 50, seed=9)(i) for i in range(100)]
        b = [zipf_key_fn("u", 50, seed=9)(i) for i in range(100)]
        assert a == b
