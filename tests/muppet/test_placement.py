"""Placement exploration (Section 5): traffic matrices and heuristics."""

import pytest

from repro.errors import ConfigurationError
from repro.muppet.placement import (TrafficMatrix, evaluate_placement,
                                    greedy_placement, hash_placement)

MACHINES = ["m0", "m1", "m2", "m3"]


def matrix_of(flows):
    """A matrix from ``(producer, function, key, events, bytes)`` flows,
    recorded one event at a time."""
    matrix = TrafficMatrix()
    for producer, function, key, events, bytes_sent in flows:
        for _ in range(events):
            matrix.record(producer, function, key, bytes_sent // events)
    return matrix


def skewed_matrix() -> TrafficMatrix:
    """Checkins arrive at m0; popular retailers dominate the traffic."""
    flows = [
        ("m0", "U1", "Walmart", 500, 50_000),
        ("m0", "U1", "Best Buy", 300, 30_000),
        ("m0", "U1", "Target", 100, 10_000),
        ("m1", "U1", "Walmart", 50, 5_000),
        ("m2", "U1", "JCPenney", 20, 2_000),
    ]
    return matrix_of(flows)


class TestTrafficMatrix:
    def test_aggregation(self):
        matrix = skewed_matrix()
        assert matrix.bytes_into(("U1", "Walmart")) == 55_000
        assert matrix.producers_of(("U1", "Walmart")) == {"m0": 50_000,
                                                          "m1": 5_000}
        assert matrix.total_bytes() == 97_000

    def test_record_api(self):
        matrix = TrafficMatrix()
        matrix.record("m0", "U1", "k", 100)
        matrix.record("m0", "U1", "k", 100)
        assert matrix.bytes_into(("U1", "k")) == 200

    def test_slots_sorted(self):
        matrix = skewed_matrix()
        assert matrix.slots() == sorted(matrix.slots())


class TestHashPlacement:
    def test_covers_all_slots(self):
        matrix = skewed_matrix()
        placement = hash_placement(matrix, MACHINES)
        assert set(placement) == set(matrix.slots())
        assert all(m in MACHINES for m in placement.values())

    def test_content_oblivious(self):
        """Hash placement ignores where traffic comes from."""
        placement = hash_placement(skewed_matrix(), MACHINES)
        flipped = matrix_of([
            ("m3", "U1", key, 1, 1)
            for _, key in skewed_matrix().slots()])
        assert hash_placement(flipped, MACHINES) == placement

    def test_needs_machines(self):
        with pytest.raises(ConfigurationError):
            hash_placement(skewed_matrix(), [])


class TestGreedyPlacement:
    def test_reduces_cross_traffic_vs_hash(self):
        """The point of the exploration: locality cuts network bytes."""
        matrix = skewed_matrix()
        hash_cost = evaluate_placement(matrix,
                                       hash_placement(matrix, MACHINES))
        greedy_cost = evaluate_placement(matrix,
                                         greedy_placement(matrix,
                                                          MACHINES))
        assert greedy_cost.cross_machine_bytes < \
            hash_cost.cross_machine_bytes
        assert greedy_cost.locality > hash_cost.locality

    def test_load_cap_prevents_all_on_one_machine(self):
        """The paper's caveat: putting every popular slate on the ingest
        machine would melt it; the cap spreads the heavy slots."""
        matrix = skewed_matrix()
        capped = greedy_placement(matrix, MACHINES,
                                  max_load_fraction=0.6)
        cost = evaluate_placement(matrix, capped)
        assert cost.max_machine_share <= 0.65  # cap + rounding slack

    def test_uncapped_goes_fully_local(self):
        matrix = skewed_matrix()
        placement = greedy_placement(matrix, MACHINES,
                                     max_load_fraction=1.0)
        cost = evaluate_placement(matrix, placement)
        # Walmart/Best Buy/Target all co-locate with their m0 producer.
        assert placement[("U1", "Walmart")] == "m0"
        assert cost.locality > 0.9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            greedy_placement(skewed_matrix(), MACHINES,
                             max_load_fraction=0.0)


class TestDriftCaveat:
    def test_stale_placement_can_lose_to_hash(self):
        """'Muppet cannot even know whether perturbations in retailer
        popularity are transient spikes ... or changing trends': a
        placement tuned to yesterday's traffic does worse than its own
        promise when popularity flips."""
        yesterday = skewed_matrix()
        tuned = greedy_placement(yesterday, MACHINES,
                                 max_load_fraction=1.0)
        today = matrix_of([
            ("m3", "U1", "Walmart", 500, 50_000),
            ("m3", "U1", "Best Buy", 300, 30_000),
            ("m3", "U1", "Target", 100, 10_000),
            ("m3", "U1", "JCPenney", 20, 2_000),
        ])
        stale_cost = evaluate_placement(today, tuned)
        fresh_cost = evaluate_placement(
            today, greedy_placement(today, MACHINES,
                                    max_load_fraction=1.0))
        assert stale_cost.cross_machine_bytes > \
            fresh_cost.cross_machine_bytes
        assert stale_cost.locality < 0.2  # yesterday's locality is gone
