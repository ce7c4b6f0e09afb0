"""Two-choice dispatch: the Section 4.5 queue-selection rules."""

import pytest

from repro.errors import ConfigurationError
from repro.muppet.dispatch import SingleChoiceDispatcher, TwoChoiceDispatcher


def idle(n):
    return [None] * n


class TestCandidates:
    def test_primary_secondary_distinct(self):
        dispatcher = TwoChoiceDispatcher(num_threads=8)
        for i in range(50):
            primary, secondary = dispatcher.candidates(f"k{i}", "U1")
            assert primary != secondary
            assert 0 <= primary < 8 and 0 <= secondary < 8

    def test_candidates_stable(self):
        dispatcher = TwoChoiceDispatcher(num_threads=8)
        assert dispatcher.candidates("k", "U1") == \
            dispatcher.candidates("k", "U1")

    def test_depend_on_function_too(self):
        """Hashing is by <event key, destination updater> (Section 4.5)."""
        dispatcher = TwoChoiceDispatcher(num_threads=64)
        pairs = {dispatcher.candidates("k", f"U{i}") for i in range(20)}
        assert len(pairs) > 1

    def test_single_thread_degenerate(self):
        dispatcher = TwoChoiceDispatcher(num_threads=1)
        assert dispatcher.candidates("k", "U") == (0, 0)
        assert dispatcher.choose("k", "U", [0], idle(1)) == 0


class TestChoiceRules:
    def test_default_goes_to_primary(self):
        dispatcher = TwoChoiceDispatcher(num_threads=4)
        primary, _ = dispatcher.candidates("k", "U")
        assert dispatcher.choose("k", "U", [0, 0, 0, 0], idle(4)) == primary

    def test_affinity_to_thread_processing_same_key(self):
        """'If the thread for either queue is already processing this
        event key for this update function, then the event is placed in
        the corresponding queue.'"""
        dispatcher = TwoChoiceDispatcher(num_threads=4)
        primary, secondary = dispatcher.candidates("k", "U")
        processing = idle(4)
        processing[secondary] = ("k", "U")
        lengths = [0, 0, 0, 0]
        assert dispatcher.choose("k", "U", lengths, processing) == secondary
        assert dispatcher.stats.affinity_hits == 1

    def test_primary_affinity_beats_secondary_shortness(self):
        dispatcher = TwoChoiceDispatcher(num_threads=4)
        primary, secondary = dispatcher.candidates("k", "U")
        processing = idle(4)
        processing[primary] = ("k", "U")
        lengths = [0] * 4
        lengths[primary] = 100  # long, but affinity wins
        assert dispatcher.choose("k", "U", lengths, processing) == primary

    def test_spill_to_significantly_shorter_secondary(self):
        dispatcher = TwoChoiceDispatcher(num_threads=4)
        primary, secondary = dispatcher.candidates("k", "U")
        lengths = [0] * 4
        lengths[primary] = 10
        lengths[secondary] = 1
        assert dispatcher.choose("k", "U", lengths, idle(4)) == secondary
        assert dispatcher.stats.spills == 1

    def test_mildly_shorter_secondary_not_chosen(self):
        dispatcher = TwoChoiceDispatcher(num_threads=4)
        primary, secondary = dispatcher.candidates("k", "U")
        lengths = [0] * 4
        lengths[primary] = 3
        lengths[secondary] = 2
        assert dispatcher.choose("k", "U", lengths, idle(4)) == primary

    def test_at_most_two_queues_locked_per_dispatch(self):
        """Section 4.5: 'an incoming event locks no more than two
        queues ... regardless of the number of threads'."""
        dispatcher = TwoChoiceDispatcher(num_threads=32)
        for i in range(100):
            dispatcher.choose(f"k{i}", "U", [0] * 32, idle(32))
        assert dispatcher.stats.queue_locks <= 2 * 100

    def test_events_never_scatter_past_two_threads(self):
        """Slate contention is bounded at two workers per key."""
        dispatcher = TwoChoiceDispatcher(num_threads=16)
        destinations = set()
        for trial in range(200):
            lengths = [trial % 7] * 16
            lengths[trial % 16] = trial  # vary load wildly
            destinations.add(
                dispatcher.choose("hotkey", "U", lengths, idle(16)))
        assert len(destinations) <= 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TwoChoiceDispatcher(num_threads=0)


class TestSingleChoice:
    def test_one_owner_per_key(self):
        """Muppet 1.0: 'only one worker can process events of the same
        key for a particular update function'."""
        dispatcher = SingleChoiceDispatcher(num_threads=8)
        choices = {dispatcher.choose("k", "U", [0] * 8, idle(8))
                   for _ in range(50)}
        assert len(choices) == 1

    def test_ignores_load(self):
        dispatcher = SingleChoiceDispatcher(num_threads=8)
        owner = dispatcher.choose("k", "U", [0] * 8, idle(8))
        lengths = [0] * 8
        lengths[owner] = 10_000  # overloaded, but still the only owner
        assert dispatcher.choose("k", "U", lengths, idle(8)) == owner

    def test_one_lock_per_dispatch(self):
        dispatcher = SingleChoiceDispatcher(num_threads=8)
        dispatcher.choose("k", "U", [0] * 8, idle(8))
        assert dispatcher.stats.queue_locks == 1


class TestMemoization:
    """A memo is a cache, not a policy: a warm dispatcher answers like a
    freshly built (cold) one, before and after the ``reset()`` a retiring
    machine applies — hits only ever skip digests, never change answers."""

    def test_two_choice_memo_matches_cold(self):
        warm = TwoChoiceDispatcher(num_threads=8)
        for i in range(300):
            if i == 150:
                warm.reset()
            key = f"k{i % 100}"
            cold = TwoChoiceDispatcher(num_threads=8)
            assert warm.candidates(key, "U1") == cold.candidates(key, "U1")
        assert warm.stats.memo_hits == 100

    def test_single_choice_memo_matches_cold(self):
        warm = SingleChoiceDispatcher(num_threads=8)
        for i in range(300):
            if i == 150:
                warm.reset()
            key = f"k{i % 100}"
            cold = SingleChoiceDispatcher(num_threads=8)
            assert (warm.choose(key, "U1", [0] * 8, idle(8))
                    == cold.choose(key, "U1", [0] * 8, idle(8)))
        assert warm.stats.memo_hits == 100

    def test_memo_counters(self):
        dispatcher = TwoChoiceDispatcher(num_threads=8)
        for _ in range(3):
            for i in range(50):
                dispatcher.candidates(f"k{i}", "U1")
        assert dispatcher.stats.memo_misses == 50
        assert dispatcher.stats.memo_hits == 100

    def test_unmemoized_counts_nothing(self):
        """One thread has one candidate: nothing is hashed, so nothing is
        memoized or counted."""
        dispatcher = TwoChoiceDispatcher(num_threads=1)
        for _ in range(3):
            assert dispatcher.candidates("k", "U1") == (0, 0)
        assert dispatcher.stats.memo_hits == 0
        assert dispatcher.stats.memo_misses == 0

    def test_memo_distinguishes_functions(self):
        dispatcher = TwoChoiceDispatcher(num_threads=8)
        pair_u1 = dispatcher.candidates("k", "U1")
        pair_u2 = dispatcher.candidates("k", "U2")
        cold = TwoChoiceDispatcher(num_threads=8)
        assert pair_u1 == cold.candidates("k", "U1")
        assert pair_u2 == cold.candidates("k", "U2")
