"""Consistent hash ring — event routing and kv-store partitioning.

Section 4.1: "give all workers the same hash function to map <event key,
destination map/update function> to workers ... any worker can instantly
calculate which worker the event hashes to". Section 4.3: routing is
"technically accomplished using a hash ring", and when a machine fails,
"since all workers use the same hash ring, from then on all events with the
same key will be routed to worker C instead of the (now failed) worker B".

The ring hashes members to many virtual points on a 64-bit circle; a lookup
hashes the routing key and walks clockwise to the first live member. Members
can be *excluded* (marked failed) without rebuilding, which is exactly the
paper's failover: the next point on the ring takes over the failed member's
arc. The same structure partitions rows across kv-store nodes, where
``preference_list`` yields the N distinct replica holders.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Generic, Hashable, Iterable, List, Set, Tuple, TypeVar

from repro.errors import ConfigurationError, WorkerFailedError

M = TypeVar("M", bound=Hashable)

#: Bound on each routing memo table (a ring's lookup memo, the kv-store's
#: replica sets). Key spaces larger than this
#: (e.g. per-user keys under heavy load) flush the memo wholesale when it
#: fills — amortized O(1) and deterministic, unlike per-entry eviction.
MEMO_MAX_ENTRIES = 65_536


def stable_hash64(data: str) -> int:
    """A process-stable 64-bit hash (Python's ``hash`` is salted per run).

    All workers must compute identical placements across runs and across
    (simulated) machines, so we use blake2b rather than ``hash()``.
    """
    digest = hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class HashRing(Generic[M]):
    """A consistent hash ring over hashable members.

    Routing lookups are memoized: the per-event hot path hashes each
    distinct routing key once (blake2b) and then serves placements from a
    bounded memo table, invalidated wholesale on any membership or
    exclusion change — a warm ring and a freshly built one are
    indistinguishable through every join/fail/revive sequence (the
    determinism tests assert exactly this).

    Args:
        members: Initial ring members (e.g. worker IDs or node names).
        replicas: Virtual points per member. More points smooth the load
            distribution at the cost of memory; 64 keeps the max/min arc
            ratio within a few percent for tens of members.
    """

    def __init__(self, members: Iterable[M] = (), replicas: int = 64) -> None:
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        self._replicas = replicas
        self._points: List[Tuple[int, M]] = []
        self._keys: List[int] = []
        self._members: Set[M] = set()
        self._excluded: Set[M] = set()
        self._lookup_memo: Dict[str, M] = {}
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_invalidations = 0
        #: Monotone membership/liveness revision. Bumps on every add,
        #: remove, exclude and restore, so callers layering their own
        #: routing caches on top (the simulator's destination memo) can
        #: detect ring changes with one integer compare per event.
        self.generation = 0
        for member in members:
            self.add(member)

    def _invalidate_memo(self) -> None:
        self.generation += 1
        if self._lookup_memo:
            self._lookup_memo.clear()
            self.memo_invalidations += 1

    # -- membership -------------------------------------------------------
    def add(self, member: M) -> None:
        """Add a member (idempotent for already-present members)."""
        if member in self._members:
            return
        self._invalidate_memo()
        self._members.add(member)
        for i in range(self._replicas):
            point = stable_hash64(f"{member!r}#{i}")
            index = bisect.bisect(self._keys, point)
            self._keys.insert(index, point)
            self._points.insert(index, (point, member))

    def remove(self, member: M) -> None:
        """Permanently remove a member and its virtual points."""
        if member not in self._members:
            return
        self._invalidate_memo()
        self._members.discard(member)
        self._excluded.discard(member)
        kept = [(p, m) for (p, m) in self._points if m != member]
        self._points = kept
        self._keys = [p for (p, _) in kept]

    def exclude(self, member: M) -> None:
        """Mark a member failed: lookups skip it but its points remain.

        This is the paper's failure handling — the ring itself is shared
        and static; each worker keeps a *list of failed machines* and skips
        them (Section 4.3).
        """
        if member in self._members and member not in self._excluded:
            self._invalidate_memo()
            self._excluded.add(member)

    def restore(self, member: M) -> None:
        """Clear a member's failed mark."""
        if member in self._excluded:
            self._invalidate_memo()
            self._excluded.discard(member)

    def preview(self, add: Iterable[M] = (),
                remove: Iterable[M] = ()) -> "HashRing[M]":
        """A throwaway shadow ring with a hypothetical membership change.

        Elastic migration plans a handoff by diffing ownership between
        the live ring and this preview *without* touching the live ring
        — the donor keeps owning its keys until cutover. Virtual-point
        positions depend only on member identity, so the preview's
        placements are exactly what the live ring will serve after the
        same add/remove is applied for real. Exclusion marks carry over
        (a failed machine must not become a migration receiver).
        """
        removed = set(remove)
        shadow: "HashRing[M]" = HashRing(replicas=self._replicas)
        for member in sorted(self._members, key=repr):
            if member not in removed:
                shadow.add(member)
        for member in add:
            shadow.add(member)
        for member in sorted(self._excluded, key=repr):
            if member not in removed:
                shadow.exclude(member)
        return shadow

    @property
    def members(self) -> Set[M]:
        """All members, including excluded ones."""
        return set(self._members)

    @property
    def live_members(self) -> Set[M]:
        """Members not currently marked failed."""
        return self._members - self._excluded

    def __len__(self) -> int:
        return len(self._members)

    # -- lookups ------------------------------------------------------------
    def lookup(self, routing_key: str) -> M:
        """The live member owning ``routing_key``.

        Raises:
            WorkerFailedError: When every member is excluded (no live
                member can own anything).
        """
        cached = self._lookup_memo.get(routing_key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        points = self._points
        n = len(points)
        if n:
            excluded = self._excluded
            start = bisect.bisect(self._keys, stable_hash64(routing_key))
            for offset in range(n):
                member = points[(start + offset) % n][1]
                if member not in excluded:
                    self.memo_misses += 1
                    if len(self._lookup_memo) >= MEMO_MAX_ENTRIES:
                        self._lookup_memo.clear()
                    self._lookup_memo[routing_key] = member
                    return member
        raise WorkerFailedError(
            "hash ring has no live members to route to"
        )

    def preference_list(self, routing_key: str, count: int,
                        include_excluded: bool = False) -> List[M]:
        """The first ``count`` distinct members clockwise of the key.

        Used by the kv-store to pick replica holders (Cassandra-style).
        Returns fewer than ``count`` members if the ring is smaller.

        Args:
            routing_key: The key whose ring position starts the walk.
            count: Replicas wanted.
            include_excluded: When True, failed members stay in the list
                — the *natural* replica set, which hinted handoff needs
                (the down node's hint is addressed to it, not to some
                substitute).

        Computed afresh on every call; the kv-store keeps its own
        per-generation memo of replica sets.
        """
        points = self._points
        n = len(points)
        result: List[M] = []
        if not n:
            return result
        excluded = self._excluded
        seen: Set[M] = set()
        start = bisect.bisect(self._keys, stable_hash64(routing_key))
        for offset in range(n):
            member = points[(start + offset) % n][1]
            if member in seen or (not include_excluded
                                  and member in excluded):
                continue
            seen.add(member)
            result.append(member)
            if len(result) >= count:
                break
        return result


def route_key(event_key: str, destination: str) -> str:
    """The paper's routing key: ``<event key, destination function>``.

    Both Muppet's event dispatch and its slate placement hash this pair, so
    all events with the same key for the same update function land on the
    same worker — "similar to MapReduce, where all events with the same key
    go to the same reducer" (Section 4.1).
    """
    return f"{destination}\x00{event_key}"
