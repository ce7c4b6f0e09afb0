"""Property tests on the dispatchers and the hash ring (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.hashring import HashRing
from repro.muppet.dispatch import SingleChoiceDispatcher, TwoChoiceDispatcher

keys = st.text(alphabet="abcdefgh0123", min_size=1, max_size=6)
functions = st.sampled_from(["U1", "U2", "M1"])


class TestTwoChoiceProperties:
    @settings(max_examples=100)
    @given(keys, functions, st.integers(2, 32),
           st.lists(st.integers(0, 1000), min_size=32, max_size=32))
    def test_choice_is_always_a_candidate(self, key, function, threads,
                                          lengths):
        """Whatever the load, the choice is the primary or secondary."""
        dispatcher = TwoChoiceDispatcher(threads)
        primary, secondary = dispatcher.candidates(key, function)
        choice = dispatcher.choose(key, function, lengths[:threads],
                                   [None] * threads)
        assert choice in (primary, secondary)

    @settings(max_examples=50)
    @given(keys, functions, st.integers(1, 32))
    def test_candidates_deterministic_across_instances(self, key,
                                                       function, threads):
        """All machines compute the same candidate pair (shared hash)."""
        a = TwoChoiceDispatcher(threads).candidates(key, function)
        b = TwoChoiceDispatcher(threads).candidates(key, function)
        assert a == b

    @settings(max_examples=30)
    @given(st.lists(st.tuples(keys, functions), min_size=1, max_size=200),
           st.integers(2, 16))
    def test_per_key_destinations_bounded_by_two(self, items, threads):
        """For any workload, one (key, fn) never lands on > 2 threads."""
        import random

        dispatcher = TwoChoiceDispatcher(threads)
        rng = random.Random(0)
        destinations = {}
        for key, function in items:
            lengths = [rng.randrange(100) for _ in range(threads)]
            choice = dispatcher.choose(key, function, lengths,
                                       [None] * threads)
            destinations.setdefault((key, function), set()).add(choice)
        assert all(len(d) <= 2 for d in destinations.values())

    @settings(max_examples=40)
    @given(st.lists(st.tuples(keys, functions, st.integers(0, 9)),
                    min_size=1, max_size=60),
           st.integers(1, 6), st.integers(0, 2**32))
    def test_choose_workers_is_choose_on_worker_records(self, items, threads,
                                                        seed):
        """The worker-record fast path (memo hit served inline, queue
        lengths read off the deque) decides and counts exactly as
        ``choose`` does on the same loads and affinities."""
        import random
        from types import SimpleNamespace

        from repro.muppet.queues import BoundedQueue

        rng = random.Random(seed)
        plain, fast = TwoChoiceDispatcher(threads), TwoChoiceDispatcher(threads)
        for key, function, busy in items:
            workers = [SimpleNamespace(queue=BoundedQueue(), current=None)
                       for _ in range(threads)]
            for worker in workers:
                for _ in range(rng.randrange(12)):
                    worker.queue.offer(None)
                if rng.randrange(10) < busy:
                    worker.current = rng.choice([(key, function), ("x", "U1")])
            lengths = [len(worker.queue) for worker in workers]
            processing = [worker.current for worker in workers]
            want = plain.choose(key, function, lengths, processing)
            assert fast.choose_workers(key, function, workers) is workers[want]
        assert fast.stats == plain.stats


class TestSingleChoiceProperties:
    @settings(max_examples=50)
    @given(keys, functions, st.integers(1, 32))
    def test_owner_independent_of_load(self, key, function, threads):
        dispatcher = SingleChoiceDispatcher(threads)
        owners = {
            dispatcher.choose(key, function, [load] * threads,
                              [None] * threads)
            for load in (0, 5, 10_000)
        }
        assert len(owners) == 1


class TestHashRingProperties:
    @settings(max_examples=50)
    @given(st.sets(st.text(alphabet="mn0123456789", min_size=1,
                           max_size=4), min_size=1, max_size=12),
           keys)
    def test_lookup_returns_live_member(self, members, key):
        ring = HashRing(members)
        assert ring.lookup(key) in members

    @settings(max_examples=50)
    @given(st.sets(st.text(alphabet="mn0123456789", min_size=1,
                           max_size=4), min_size=2, max_size=12),
           st.lists(keys, min_size=1, max_size=30))
    def test_exclusion_moves_only_victims_keys(self, members, lookup_keys):
        ring = HashRing(members)
        before = {key: ring.lookup(key) for key in lookup_keys}
        victim = ring.lookup(lookup_keys[0])
        ring.exclude(victim)
        for key, owner in before.items():
            after = ring.lookup(key)
            if owner == victim:
                assert after != victim
            else:
                assert after == owner

    @settings(max_examples=50)
    @given(st.sets(st.text(alphabet="mn0123456789", min_size=1,
                           max_size=4), min_size=1, max_size=12),
           keys, st.integers(1, 5))
    def test_preference_list_distinct_and_live(self, members, key, count):
        ring = HashRing(members)
        replicas = ring.preference_list(key, count)
        assert len(replicas) == len(set(replicas))
        assert len(replicas) == min(count, len(members))
        assert all(replica in members for replica in replicas)
