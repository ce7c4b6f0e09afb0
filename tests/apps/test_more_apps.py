"""Top-ten URLs and key splitting (Sections 2, 5, Ex 6)."""

from collections import Counter

import pytest

from repro.apps.key_splitting import base_key, build_split_app, split_key
from repro.apps.retailer_count import build_retailer_app
from repro.apps.top_urls import LEADERBOARD_KEY, build_top_urls_app
from repro.core import ReferenceExecutor
from repro.workloads import CheckinGenerator, TweetGenerator
from repro.workloads import tweets
from repro.workloads.tweets import parse_tweet


class TestTopUrls:
    def tweets_with_urls(self, n=1500, seed=41):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tweets, "URL_PROB", 0.5)
            return TweetGenerator(rate_per_s=200, seed=seed).take(n)

    def test_leaderboard_matches_true_top(self):
        events = self.tweets_with_urls()
        truth = Counter()
        for event in events:
            for url in parse_tweet(event.value).get("urls", []):
                truth[url] += 1
        result = ReferenceExecutor(build_top_urls_app()).run(events)
        board = result.slate("U2", LEADERBOARD_KEY)["top"]
        top_urls = [url for url, _ in board]
        true_top = [url for url, _ in truth.most_common(10)]
        # Counts must match exactly for every listed URL.
        assert all(truth[url] == count for url, count in board)
        # The winner is unambiguous.
        assert top_urls[0] == true_top[0]
        assert len(board) == 10

    def test_publish_every_reduces_leaderboard_traffic(self):
        events = self.tweets_with_urls(800)
        chatty = ReferenceExecutor(build_top_urls_app()).run(list(events))
        damped_app = build_top_urls_app()
        damped_app.operator("U1").config["publish_every"] = 5
        damped = ReferenceExecutor(damped_app).run(list(events))
        assert len(damped.events_on("S3")) < len(chatty.events_on("S3"))

    def test_all_leaderboard_updates_hit_one_key(self):
        """The deliberate hotspot: every S3 event has key 'top'."""
        events = self.tweets_with_urls(300)
        result = ReferenceExecutor(build_top_urls_app()).run(events)
        assert all(e.key == LEADERBOARD_KEY
                   for e in result.events_on("S3"))


class TestKeySplitting:
    def test_key_helpers(self):
        assert split_key("Best Buy", 1) == "Best Buy#1"
        assert base_key("Best Buy#1") == "Best Buy"
        assert base_key("Best Buy") == "Best Buy"
        assert base_key("weird#name#2") == "weird#name"

    @pytest.mark.parametrize("num_splits", [1, 2, 4, 8])
    @pytest.mark.parametrize("emit_every", [1, 7])
    def test_merged_totals_equal_truth(self, num_splits, emit_every):
        """Example 6's invariant: splitting is invisible in the totals,
        for any split factor and emit cadence."""
        generator = CheckinGenerator(seed=51, hot_retailer="Best Buy",
                                     hot_share=0.8, rate_per_s=200)
        events, truth = generator.take_with_truth(1200)
        app = build_split_app(hot_keys=["Best Buy"],
                              num_splits=num_splits,
                              emit_every=emit_every)
        result = ReferenceExecutor(app, max_events=500_000).run(events)
        merged = {k: s["count"] for k, s in result.slates_of("U2").items()}
        assert merged == truth

    def test_hot_key_fans_out_across_subkeys(self):
        generator = CheckinGenerator(seed=52, hot_retailer="Best Buy",
                                     hot_share=0.9, rate_per_s=200)
        events, truth = generator.take_with_truth(1000)
        app = build_split_app(hot_keys=["Best Buy"], num_splits=4,
                              emit_every=5)
        result = ReferenceExecutor(app, max_events=500_000).run(events)
        subkeys = {k for k in result.slates_of("U1")
                   if k.startswith("Best Buy#")}
        assert subkeys == {f"Best Buy#{i}" for i in range(4)}
        # Round-robin: sub-counts are near-equal.
        counts = [result.slate("U1", k)["count"] for k in sorted(subkeys)]
        assert max(counts) - min(counts) <= 1

    def test_cold_keys_not_split(self):
        generator = CheckinGenerator(seed=53, rate_per_s=200)
        events, truth = generator.take_with_truth(500)
        app = build_split_app(hot_keys=["Best Buy"], num_splits=4)
        result = ReferenceExecutor(app, max_events=500_000).run(events)
        assert "Walmart" in result.slates_of("U1")
        assert "Walmart#0" not in result.slates_of("U1")

    def test_split_vs_unsplit_agree(self):
        generator = CheckinGenerator(seed=54, rate_per_s=200)
        events, truth = generator.take_with_truth(800)
        unsplit = ReferenceExecutor(build_retailer_app()).run(list(events))
        split = ReferenceExecutor(
            build_split_app(hot_keys=["Walmart"], num_splits=3,
                            emit_every=2),
            max_events=500_000).run(list(events))
        unsplit_counts = {k: s["count"]
                          for k, s in unsplit.slates_of("U1").items()}
        split_counts = {k: s["count"]
                        for k, s in split.slates_of("U2").items()}
        assert unsplit_counts == split_counts == truth
