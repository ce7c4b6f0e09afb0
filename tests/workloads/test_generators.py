"""Tweet and checkin generators: schema, determinism, knobs."""

import json
from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.workloads.checkins import (CheckinGenerator, parse_checkin)
from repro.workloads.tweets import TopicBurst, TweetGenerator
from repro.apps.retailer_count import match_retailer


class TestTweetGenerator:
    def test_schema(self):
        event = TweetGenerator(seed=1).take(1)[0]
        tweet = json.loads(event.value)
        assert tweet["user"] == event.key
        assert isinstance(tweet["topics"], list) and tweet["topics"]
        assert "text" in tweet and "id" in tweet

    def test_seeded_determinism(self):
        a = [e.value for e in TweetGenerator(seed=4).take(50)]
        b = [e.value for e in TweetGenerator(seed=4).take(50)]
        assert a == b

    def test_rate_spacing(self):
        events = TweetGenerator(rate_per_s=100, seed=0).take(10)
        assert events[1].ts - events[0].ts == pytest.approx(0.01)

    def test_retweets_and_replies_present(self):
        tweets = [json.loads(e.value)
                  for e in TweetGenerator(seed=2).take(500)]
        retweets = sum(1 for t in tweets if "retweet_of" in t)
        replies = sum(1 for t in tweets if "reply_to" in t)
        assert retweets > 30 and replies > 15

    def test_urls_present(self):
        tweets = [json.loads(e.value)
                  for e in TweetGenerator(seed=2).take(500)]
        with_urls = sum(1 for t in tweets if "urls" in t)
        assert with_urls > 50

    def test_burst_multiplies_topic_share(self):
        # "fashion" is the least popular topic (Zipf rank last), so a
        # burst visibly multiplies its share.
        burst = TopicBurst("fashion", start_s=0.0, end_s=10.0,
                           multiplier=10.0)
        quiet = TweetGenerator(rate_per_s=100, seed=5).take(1000)
        noisy = TweetGenerator(rate_per_s=100, seed=5,
                               bursts=[burst]).take(1000)

        def share(events):
            topics = Counter(json.loads(e.value)["topics"][0]
                             for e in events)
            return topics["fashion"] / len(events)

        assert share(noisy) > 3 * max(share(quiet), 0.01)

    def test_author_popularity_skewed(self):
        events = TweetGenerator(seed=6, num_users=1000).take(2000)
        authors = Counter(e.key for e in events)
        top = authors.most_common(1)[0][1]
        assert top > 2000 / 1000 * 10  # way above uniform share

    def test_events_duration_bounded(self):
        events = list(TweetGenerator(rate_per_s=50, seed=0).events(2.0))
        assert len(events) == 100
        assert all(e.ts < 2.0 for e in events)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TweetGenerator(rate_per_s=0)


class TestCheckinGenerator:
    def test_schema(self):
        events, _ = CheckinGenerator(seed=1).take_with_truth(1)
        checkin = parse_checkin(events[0].value)
        assert checkin["user"] == events[0].key
        assert "name" in checkin["venue"]
        assert "lat" in checkin["venue"]

    def test_seeded_determinism(self):
        a, truth_a = CheckinGenerator(seed=3).take_with_truth(100)
        b, truth_b = CheckinGenerator(seed=3).take_with_truth(100)
        assert [e.value for e in a] == [e.value for e in b]
        assert truth_a == truth_b

    def test_truth_matches_pattern_matcher(self):
        """Ground truth must agree with the Figure 3 regexes — otherwise
        tests comparing app output to truth are meaningless."""
        events, truth = CheckinGenerator(seed=9).take_with_truth(1000)
        recounted = Counter()
        for event in events:
            venue = parse_checkin(event.value)["venue"]["name"]
            retailer = match_retailer(venue)
            if retailer:
                recounted[retailer] += 1
        assert dict(recounted) == truth

    def test_retail_fraction_respected(self):
        events, truth = CheckinGenerator(
            seed=2, retail_fraction=0.5).take_with_truth(2000)
        retail = sum(truth.values())
        assert 800 < retail < 1200

    def test_zero_retail_fraction(self):
        _, truth = CheckinGenerator(
            seed=2, retail_fraction=0.0).take_with_truth(500)
        assert truth == {}

    def test_hot_retailer_dominates(self):
        """The Example 6 hotspot knob."""
        _, truth = CheckinGenerator(
            seed=2, hot_retailer="Best Buy",
            hot_share=0.9).take_with_truth(2000)
        assert truth["Best Buy"] > 0.7 * sum(truth.values())

    def test_unknown_hot_retailer_rejected(self):
        with pytest.raises(ConfigurationError):
            CheckinGenerator(hot_retailer="Sears")
