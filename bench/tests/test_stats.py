"""The percentile helper against its sorted-list definition."""

import random
import statistics

import pytest

from bench import stats


def by_definition(samples, fraction):
    """Smallest sample with at least ``fraction`` of all samples <= it."""
    ordered = sorted(samples)
    for value in ordered:
        if sum(1 for other in ordered if other <= value) >= (
                fraction * len(ordered)):
            return value
    return ordered[-1]


@pytest.mark.parametrize("size", [1, 2, 3, 10, 99, 100, 101, 1000])
def test_percentile_matches_sorted_list_definition(size):
    rng = random.Random(size)
    samples = [rng.random() for _ in range(size)]
    for fraction in (0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0):
        want = by_definition(samples, fraction) if fraction else min(samples)
        assert stats.percentile(samples, fraction) == want


def test_percentile_is_an_observed_sample_and_handles_ties():
    samples = [5.0] * 98 + [7.0, 9.0]
    assert stats.percentile(samples, 0.98) == 5.0
    assert stats.percentile(samples, 0.99) == 7.0
    assert stats.percentile(samples, 1.0) == 9.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 1.5)


def test_quartiles_follow_statistics_quantiles():
    values = [12.0, 10.0, 11.0, 15.0, 9.0, 10.5, 13.0, 10.2, 11.1, 12.4]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == [q1, q2, q3]
    assert q2 == statistics.median(values)
    assert stats.quartiles([4.0]) == [4.0, 4.0, 4.0]
    assert stats.summary(values)["n"] == 10
