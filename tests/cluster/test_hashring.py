"""Consistent hash ring: stability, failover, replica selection."""

from collections import Counter

import pytest

from repro.cluster.hashring import HashRing, route_key, stable_hash64
from repro.errors import ConfigurationError, WorkerFailedError


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash64("abc") == stable_hash64("abc")

    def test_distinct_inputs_differ(self):
        assert stable_hash64("abc") != stable_hash64("abd")

    def test_64_bit_range(self):
        assert 0 <= stable_hash64("x") < 2 ** 64


class TestRouteKey:
    def test_combines_key_and_destination(self):
        """Section 4.1: the routing input is <event key, destination fn>."""
        assert route_key("k", "U1") != route_key("k", "U2")
        assert route_key("k1", "U1") != route_key("k2", "U1")

    def test_no_ambiguity_from_concatenation(self):
        assert route_key("ab", "c") != route_key("a", "bc")


class TestMembership:
    def test_lookup_returns_a_member(self):
        ring = HashRing(["a", "b", "c"])
        assert ring.lookup("anything") in {"a", "b", "c"}

    def test_lookup_is_stable(self):
        ring = HashRing(["a", "b", "c"])
        assert ring.lookup("k") == ring.lookup("k")

    def test_two_rings_same_members_agree(self):
        """All workers share the hash function (Section 4.1): independent
        ring instances route identically."""
        r1 = HashRing(["a", "b", "c", "d"])
        r2 = HashRing(["d", "c", "b", "a"])
        for i in range(100):
            assert r1.lookup(f"key{i}") == r2.lookup(f"key{i}")

    def test_add_is_idempotent(self):
        ring = HashRing(["a"])
        ring.add("a")
        assert len(ring) == 1

    def test_remove_member(self):
        ring = HashRing(["a", "b"])
        ring.remove("a")
        assert ring.members == {"b"}
        assert all(ring.lookup(f"k{i}") == "b" for i in range(10))

    def test_remove_unknown_is_noop(self):
        ring = HashRing(["a"])
        ring.remove("zzz")
        assert len(ring) == 1

    def test_invalid_replicas_rejected(self):
        with pytest.raises(ConfigurationError):
            HashRing(replicas=0)


class TestFailover:
    def test_excluded_member_skipped(self):
        """Section 4.3: after a failure broadcast, all events with the
        same key route to the next worker on the ring."""
        ring = HashRing(["a", "b", "c"])
        owner = ring.lookup("k")
        ring.exclude(owner)
        replacement = ring.lookup("k")
        assert replacement != owner
        assert ring.lookup("k") == replacement  # stable thereafter

    def test_unaffected_keys_keep_their_owner(self):
        ring = HashRing([f"m{i}" for i in range(8)])
        before = {f"key{i}": ring.lookup(f"key{i}") for i in range(200)}
        victim = ring.lookup("key0")
        ring.exclude(victim)
        moved = sum(1 for k, owner in before.items()
                    if owner != victim and ring.lookup(k) != owner)
        assert moved == 0  # only the victim's keys move

    def test_restore_returns_ownership(self):
        ring = HashRing(["a", "b", "c"])
        owner = ring.lookup("k")
        ring.exclude(owner)
        ring.restore(owner)
        assert ring.lookup("k") == owner

    def test_all_excluded_raises(self):
        ring = HashRing(["a"])
        ring.exclude("a")
        with pytest.raises(WorkerFailedError):
            ring.lookup("k")

    def test_live_members_view(self):
        ring = HashRing(["a", "b"])
        ring.exclude("a")
        assert ring.live_members == {"b"}
        assert ring.members == {"a", "b"}


class TestPreferenceList:
    def test_distinct_members(self):
        ring = HashRing(["a", "b", "c", "d"])
        replicas = ring.preference_list("row", 3)
        assert len(replicas) == 3
        assert len(set(replicas)) == 3

    def test_first_entry_is_lookup_owner(self):
        ring = HashRing(["a", "b", "c"])
        assert ring.preference_list("row", 2)[0] == ring.lookup("row")

    def test_truncated_when_ring_small(self):
        ring = HashRing(["a", "b"])
        assert len(ring.preference_list("row", 5)) == 2

    def test_skips_excluded(self):
        ring = HashRing(["a", "b", "c"])
        victim = ring.preference_list("row", 1)[0]
        ring.exclude(victim)
        assert victim not in ring.preference_list("row", 2)


class TestLoadDistribution:
    def test_reasonably_balanced(self):
        """Virtual nodes keep the max/min owner load within ~3x for
        a thousand keys over 8 members."""
        ring = HashRing([f"m{i}" for i in range(8)], replicas=64)
        counts = Counter(ring.lookup(f"key{i}") for i in range(1000))
        assert set(counts) == ring.live_members
        assert max(counts.values()) <= 3 * max(1, min(counts.values()))


class TestMemoization:
    """A memo is a cache, not a policy: it is invisible except in its
    counters. A warm ring must agree with a freshly built (cold) ring
    of the same membership at every step of any churn sequence."""

    KEYS = [f"key{i}" for i in range(200)]

    def assert_matches_cold(self, warm, members, excluded=()):
        cold = HashRing(members)
        for member in excluded:
            cold.exclude(member)
        for key in self.KEYS:
            assert warm.lookup(key) == cold.lookup(key)
            assert (warm.preference_list(key, 3)
                    == cold.preference_list(key, 3))
            assert (warm.preference_list(key, 3, include_excluded=True)
                    == cold.preference_list(key, 3, include_excluded=True))

    def test_agrees_across_join_fail_revive(self):
        members = [f"m{i}" for i in range(6)]
        warm = HashRing(members)
        self.assert_matches_cold(warm, members)
        warm.exclude("m2")                            # fail
        self.assert_matches_cold(warm, members, excluded=["m2"])
        warm.add("m6")                                # join
        self.assert_matches_cold(warm, members + ["m6"], excluded=["m2"])
        warm.restore("m2")                            # revive
        self.assert_matches_cold(warm, members + ["m6"])
        warm.remove("m4")                             # leave
        self.assert_matches_cold(
            warm, [m for m in members + ["m6"] if m != "m4"])

    def test_hits_accumulate_only_when_memoized(self):
        ring = HashRing(["a", "b", "c"])
        for key in self.KEYS[:50]:
            ring.lookup(key)
        # First sight of a key is a miss; only a memoized key can hit.
        assert (ring.memo_hits, ring.memo_misses) == (0, 50)
        for key in self.KEYS[:50]:
            ring.lookup(key)
        assert (ring.memo_hits, ring.memo_misses) == (50, 50)

    def test_membership_change_invalidates(self):
        ring = HashRing(["a", "b", "c"])
        ring.lookup("row")
        ring.add("d")
        assert ring.memo_invalidations == 1
        ring.lookup("row")
        ring.exclude("a")
        assert ring.memo_invalidations == 2
        # No-op changes must not invalidate a warm memo.
        ring.lookup("row")
        ring.exclude("a")          # already excluded
        ring.restore("b")          # never excluded
        ring.add("d")              # already a member
        ring.remove("zz")          # never a member
        assert ring.memo_invalidations == 2

    def test_stale_memo_never_serves_excluded_member(self):
        ring = HashRing(["a", "b", "c"])
        owner = ring.lookup("row")
        ring.exclude(owner)
        assert ring.lookup("row") != owner
        assert owner not in ring.preference_list("row", 2)

    def test_preference_list_copies_are_independent(self):
        ring = HashRing(["a", "b", "c"])
        first = ring.preference_list("row", 2)
        first.append("corrupted")
        assert ring.preference_list("row", 2) != first
