"""User reputation (Example 3): endorsement flows through the self-loop."""

import json

import pytest

from repro.apps.reputation import (ACTIVITY_BOOST, INITIAL_SCORE,
                                   RETWEET_WEIGHT, build_reputation_app)
from repro.core import Event, ReferenceExecutor
from repro.muppet.local import LocalConfig, LocalMuppet
from repro.workloads import TweetGenerator


def tweet(user, ts, retweet_of=None, reply_to=None):
    record = {"user": user, "text": "hi"}
    if retweet_of:
        record["retweet_of"] = retweet_of
    if reply_to:
        record["reply_to"] = reply_to
    return Event("S1", ts, user, json.dumps(record))


class TestScoring:
    def test_plain_tweet_boosts_author(self):
        result = ReferenceExecutor(build_reputation_app()).run(
            [tweet("alice", 0.0)])
        slate = result.slates_of("U1").get("alice")
        assert slate["score"] == pytest.approx(INITIAL_SCORE
                                               + ACTIVITY_BOOST)
        assert slate["tweets"] == 1

    def test_retweet_transfers_weighted_score(self):
        """'if a user A retweets ... user B, then the score of B may
        change, depending on the score of A'."""
        result = ReferenceExecutor(build_reputation_app()).run(
            [tweet("alice", 0.0, retweet_of="bob")])
        alice = result.slates_of("U1").get("alice")
        bob = result.slates_of("U1").get("bob")
        expected_alice = INITIAL_SCORE + ACTIVITY_BOOST
        assert alice["score"] == pytest.approx(expected_alice)
        assert bob["score"] == pytest.approx(
            INITIAL_SCORE + RETWEET_WEIGHT * expected_alice)
        assert bob["endorsements_received"] == 1

    def test_reply_weighs_less_than_retweet(self):
        replied = ReferenceExecutor(build_reputation_app()).run(
            [tweet("a", 0.0, reply_to="b")]).slates_of("U1")["b"]["score"]
        retweeted = ReferenceExecutor(build_reputation_app()).run(
            [tweet("a", 0.0, retweet_of="b")]).slates_of("U1")["b"]["score"]
        assert replied < retweeted

    def test_high_scorer_endorsement_worth_more(self):
        """B's gain depends on A's *current* score."""
        app = build_reputation_app()
        events = [tweet("star", float(i)) for i in range(50)]  # builds score
        events.append(tweet("star", 100.0, retweet_of="lucky"))
        events.append(tweet("nobody", 101.0, retweet_of="unlucky"))
        result = ReferenceExecutor(app).run(events)
        lucky = result.slates_of("U1")["lucky"]["score"]
        unlucky = result.slates_of("U1")["unlucky"]["score"]
        assert lucky > unlucky

    def test_self_retweet_ignored(self):
        result = ReferenceExecutor(build_reputation_app()).run(
            [tweet("alice", 0.0, retweet_of="alice")])
        slate = result.slates_of("U1").get("alice")
        assert slate["endorsements_received"] == 0


class TestWorkflowShape:
    def test_graph_has_self_loop(self):
        """U1 publishes into a stream it subscribes to (cycle, §3)."""
        app = build_reputation_app()
        assert app.has_cycle()

    def test_runs_on_local_runtime(self):
        events = TweetGenerator(rate_per_s=100, seed=31).take(300)
        with LocalMuppet(build_reputation_app(),
                         LocalConfig(num_threads=4)) as runtime:
            runtime.ingest_many(events)
            assert runtime.drain()
            slates = runtime.read_slates_of("U1")
        assert len(slates) > 10
        assert all(s["score"] >= INITIAL_SCORE for s in slates.values())

    def test_deterministic_on_reference(self):
        events = TweetGenerator(rate_per_s=100, seed=32).take(200)
        r1 = ReferenceExecutor(build_reputation_app()).run(list(events))
        r2 = ReferenceExecutor(build_reputation_app()).run(list(events))
        scores1 = {k: s["score"] for k, s in r1.slates_of("U1").items()}
        scores2 = {k: s["score"] for k, s in r2.slates_of("U1").items()}
        assert scores1 == scores2
