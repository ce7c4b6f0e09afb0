"""Muppet 2.0's primary/secondary queue dispatch (Section 4.5).

"When an event arrives at the machine, it is hashed by event key and
destination updater function into a primary event queue and a secondary
event queue. If the thread for either queue is already processing this
event key for this update function, then the event is placed in the
corresponding queue. Otherwise, the event is placed in the primary queue
unless the secondary queue is significantly shorter, in which case the
event is placed in the secondary queue instead."

Benefits reproduced here and measured by bench E4: at most two queues are
locked per dispatch; events of one (key, updater) never scatter past two
threads (slate contention ≤ 2); hot primaries can spill to the secondary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.cluster.hashring import MEMO_MAX_ENTRIES, stable_hash64
from repro.errors import ConfigurationError
from repro.obs.registry import CounterFields

#: The work item identity the dispatcher reasons about.
KeyFn = Tuple[str, str]  # (event key, destination function)

#: The secondary is chosen when ``primary_len >= SIGNIFICANT_FACTOR *
#: (secondary_len + 1)`` — our concrete reading of "significantly shorter".
SIGNIFICANT_FACTOR = 2.0


@dataclass(slots=True)
class DispatchStats(CounterFields):
    """Counters proving the Section 4.5 claims."""

    dispatched: int = 0
    to_primary: int = 0
    to_secondary: int = 0
    affinity_hits: int = 0       # routed to the thread already on this key
    spills: int = 0              # secondary chosen because primary was long
    queue_locks: int = 0         # ≤ 2 per dispatch, by construction
    memo_hits: int = 0           # candidate pairs served from the memo
    memo_misses: int = 0         # candidate pairs that cost two hashes


class TwoChoiceDispatcher:
    """Chooses between a primary and a secondary thread queue.

    Args:
        num_threads: Worker threads on the machine.
    """

    def __init__(self, num_threads: int) -> None:
        if num_threads < 1:
            raise ConfigurationError("num_threads must be >= 1")
        self.num_threads = num_threads
        self.stats = DispatchStats()
        self._memo: Dict[KeyFn, Tuple[int, int]] = {}

    def reset(self) -> None:
        """Forget memoized placements. Called when the machine retires
        from the ring so a later re-admission starts with a cold
        dispatcher, indistinguishable from a freshly built machine."""
        self._memo.clear()

    def candidates(self, key: str, function: str) -> Tuple[int, int]:
        """The (primary, secondary) thread indexes for a (key, function).

        Both are stable hashes; with one thread they coincide, otherwise
        they are guaranteed distinct. The pair is pure in (key, function)
        and thread count, so it is memoized: repeat keys skip both blake2b
        digests (bounded table, wholesale clear when full).
        """
        if self.num_threads == 1:
            return 0, 0
        memo_key = (key, function)
        pair = self._memo.get(memo_key)
        if pair is not None:
            self.stats.memo_hits += 1
            return pair
        primary = stable_hash64(f"p\x00{function}\x00{key}") % self.num_threads
        secondary = stable_hash64(f"s\x00{function}\x00{key}") % self.num_threads
        if secondary == primary:
            secondary = (secondary + 1) % self.num_threads
        self.stats.memo_misses += 1
        if len(self._memo) >= MEMO_MAX_ENTRIES:
            self._memo.clear()
        self._memo[memo_key] = (primary, secondary)
        return primary, secondary

    def choose(
        self,
        key: str,
        function: str,
        queue_lengths: Sequence[int],
        processing: Sequence[Optional[KeyFn]],
    ) -> int:
        """Pick the destination thread index for one incoming event.

        Args:
            key: Event key.
            function: Destination map/update function name.
            queue_lengths: Current length of each thread's queue.
            processing: The (key, function) each thread is executing right
                now, or None when idle.

        Returns:
            The chosen thread index (always the primary or the secondary).
        """
        primary, secondary = self.candidates(key, function)
        self.stats.dispatched += 1
        self.stats.queue_locks += 1 if primary == secondary else 2

        item: KeyFn = (key, function)
        if processing[primary] == item:
            self.stats.to_primary += 1
            self.stats.affinity_hits += 1
            return primary
        if primary != secondary and processing[secondary] == item:
            self.stats.to_secondary += 1
            self.stats.affinity_hits += 1
            return secondary

        if (primary != secondary
                and queue_lengths[primary]
                >= SIGNIFICANT_FACTOR * (queue_lengths[secondary] + 1)):
            self.stats.to_secondary += 1
            self.stats.spills += 1
            return secondary
        self.stats.to_primary += 1
        return primary

    def choose_workers(self, key: str, function: str, workers: Sequence):  # hot-path
        """Pick the destination worker for one incoming event.

        The fast-path twin of :meth:`choose`: instead of the caller
        materializing full ``queue_lengths``/``processing`` lists (one
        allocation and O(threads) attribute chases per event), only the
        two candidate workers are inspected directly. ``workers`` must
        expose ``current`` and a ``queue`` that is a
        :class:`~repro.muppet.queues.BoundedQueue`, whose length is read
        as ``len(queue._items)``, and the :meth:`candidates` memo hit is
        served here.
        """
        # inlines: repro.muppet.dispatch:TwoChoiceDispatcher.choose
        item = (key, function)
        stats = self.stats
        stats.dispatched += 1
        if self.num_threads == 1:
            stats.queue_locks += 1
            worker = workers[0]
            if worker.current == item:
                stats.affinity_hits += 1
            stats.to_primary += 1
            return worker
        pair = self._memo.get(item)
        if pair is None:
            pair = self.candidates(key, function)
        else:
            stats.memo_hits += 1
        stats.queue_locks += 2
        first = workers[pair[0]]
        if first.current == item:
            stats.to_primary += 1
            stats.affinity_hits += 1
            return first
        second = workers[pair[1]]
        if second.current == item:
            stats.to_secondary += 1
            stats.affinity_hits += 1
            return second
        if (len(first.queue._items)
                >= SIGNIFICANT_FACTOR * (len(second.queue._items) + 1)):
            stats.to_secondary += 1
            stats.spills += 1
            return second
        stats.to_primary += 1
        return first


class SingleChoiceDispatcher:
    """Muppet 1.0 routing on one machine: a key maps to exactly one worker.

    "Only one worker can process events of the same key for a particular
    update function, ensuring no slate contention" — but also creating the
    hotspot problem that motivated the two-choice design. Kept as the
    explicit baseline for bench E4.
    """

    def __init__(self, num_threads: int) -> None:
        if num_threads < 1:
            raise ConfigurationError("num_threads must be >= 1")
        self.num_threads = num_threads
        self.stats = DispatchStats()
        self._memo: Dict[KeyFn, int] = {}

    def reset(self) -> None:
        """Forget memoized placements (see TwoChoiceDispatcher.reset)."""
        self._memo.clear()

    def choose(
        self,
        key: str,
        function: str,
        queue_lengths: Sequence[int],
        processing: Sequence[Optional[KeyFn]],
    ) -> int:
        """The unique thread owning (key, function)."""
        self.stats.dispatched += 1
        self.stats.queue_locks += 1
        self.stats.to_primary += 1
        memo_key = (key, function)
        thread = self._memo.get(memo_key)
        if thread is not None:
            self.stats.memo_hits += 1
            return thread
        thread = stable_hash64(f"p\x00{function}\x00{key}") % self.num_threads
        self.stats.memo_misses += 1
        if len(self._memo) >= MEMO_MAX_ENTRIES:
            self._memo.clear()
        self._memo[memo_key] = thread
        return thread

    def choose_workers(self, key: str, function: str, workers: Sequence):  # hot-path
        """Fast-path twin of :meth:`choose` (see TwoChoiceDispatcher):
        returns the owning worker directly, stats identical."""
        return workers[self.choose(key, function, (), ())]
