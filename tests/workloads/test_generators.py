"""Tweet and checkin generators: schema, determinism, knobs."""

import hashlib
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

    @pytest.mark.parametrize("retweet_prob,reply_prob",
                             [(0.8, 0.5), (-0.1, 0.1), (0.1, -0.1)])
    def test_reference_probabilities_validated(self, retweet_prob,
                                               reply_prob):
        with pytest.raises(ConfigurationError):
            TweetGenerator(seed=1, retweet_prob=retweet_prob,
                           reply_prob=reply_prob)

    @pytest.mark.parametrize("start_s,end_s,multiplier",
                             [(5.0, 1.0, 10.0), (1.0, 1.0, 10.0),
                              (1.0, 5.0, -3.0), (1.0, 5.0, 0.0)])
    def test_burst_validated(self, start_s, end_s, multiplier):
        with pytest.raises(ConfigurationError):
            TopicBurst("food", start_s, end_s, multiplier)


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

    @pytest.mark.parametrize("hot_share", [1.5, -0.1])
    def test_hot_share_validated(self, hot_share):
        with pytest.raises(ConfigurationError):
            CheckinGenerator(hot_retailer="Best Buy", hot_share=hot_share)


#: A burst topic that needs escaping: a quote, a backslash and a
#: non-ASCII letter.
ODD_TOPIC = 'q"uo\\teé'

TWEET_CASES = {
    "take": lambda seed: TweetGenerator(seed=seed).take(3000),
    "events_from_5s": lambda seed: list(
        TweetGenerator(seed=seed).events(2.0, 5.0)),
    "fashion_burst": lambda seed: TweetGenerator(
        rate_per_s=1000, seed=seed,
        bursts=[TopicBurst("fashion", 0.5, 1.5)]).take(2000),
    "odd_burst_from_3s": lambda seed: list(TweetGenerator(
        rate_per_s=500, seed=seed,
        bursts=[TopicBurst(ODD_TOPIC, 3.0, 4.0, 5.0)]).events(2.0, 3.0)),
    "half_retweets": lambda seed: TweetGenerator(
        seed=seed, retweet_prob=0.5, reply_prob=0.4).take(2000),
}

CHECKIN_CASES = {
    "default": lambda seed: CheckinGenerator(seed=seed).take_with_truth(3000),
    "hot_best_buy": lambda seed: CheckinGenerator(
        seed=seed, hot_retailer="Best Buy").take_with_truth(2000),
    "all_retail": lambda seed: CheckinGenerator(
        seed=seed, retail_fraction=1.0).take_with_truth(2000),
    "no_retail": lambda seed: CheckinGenerator(
        seed=seed, retail_fraction=0.0).take_with_truth(1000),
    "from_7s": lambda seed: CheckinGenerator(
        seed=seed, rate_per_s=500).take_with_truth(1000, start_ts=7.5),
    "events_from_5s": lambda seed: (list(CheckinGenerator(
        seed=seed, rate_per_s=1000).events(2.0, 5.0)), None),
}

SEEDS = (0, 1, 7)


def _digest(events, truth=None):
    """SHA-256 of every ``(sid, ts, key, value)``, then of the truth."""
    sha = hashlib.sha256()
    for e in events:
        sha.update(repr((e.sid, e.ts, e.key, e.value)).encode())
    if truth is not None:
        sha.update(repr(sorted(truth.items())).encode())
    return sha.hexdigest()[:16]


def _generate(family, case, seed):
    if family == "tweets":
        return TWEET_CASES[case](seed), None
    return CHECKIN_CASES[case](seed)


#: Recorded from the generators that built a dict per record and
#: serialised it with ``json.dumps``.
DIGESTS = {
    "tweets/take/0": "dcb7956d1d338e1a",
    "tweets/take/1": "848ee28af5f7ecfe",
    "tweets/take/7": "963ed3a056993d8c",
    "tweets/events_from_5s/0": "2bd695ea12fe5d01",
    "tweets/events_from_5s/1": "66b64db5eb64d7b0",
    "tweets/events_from_5s/7": "4327bbc9f4ec1941",
    "tweets/fashion_burst/0": "3ba2e17811a0e083",
    "tweets/fashion_burst/1": "fd7732b5deae2a24",
    "tweets/fashion_burst/7": "5b8edad0a7c8397a",
    "tweets/odd_burst_from_3s/0": "df11bdbc2cb5faff",
    "tweets/odd_burst_from_3s/1": "5e7d8f8210b9fe17",
    "tweets/odd_burst_from_3s/7": "8456ab9f55c71e46",
    "tweets/half_retweets/0": "6b21edd034aa2d5c",
    "tweets/half_retweets/1": "6c56c0c136677ba6",
    "tweets/half_retweets/7": "9ceac3a214a4c8b6",
    "checkins/default/0": "f7ebadfb5b64c05d",
    "checkins/default/1": "22fbbd2fc19049f0",
    "checkins/default/7": "bfe55c940c706deb",
    "checkins/hot_best_buy/0": "f3d6c7826478b976",
    "checkins/hot_best_buy/1": "0dcd5178c6b8eccd",
    "checkins/hot_best_buy/7": "7c821bef49f3559d",
    "checkins/all_retail/0": "2a599623a1baaed9",
    "checkins/all_retail/1": "01102f406c39faee",
    "checkins/all_retail/7": "9727992729448cf6",
    "checkins/no_retail/0": "6dd00958ed521403",
    "checkins/no_retail/1": "f6e719ea202fefb7",
    "checkins/no_retail/7": "f879a470a2d7f071",
    "checkins/from_7s/0": "4e9bff474c295054",
    "checkins/from_7s/1": "ba3e3751b17e406a",
    "checkins/from_7s/7": "f0672e06a1ef9c51",
    "checkins/events_from_5s/0": "ce7dd430d009843d",
    "checkins/events_from_5s/1": "dde9c68a8beb75a6",
    "checkins/events_from_5s/7": "51775a03680f182d",
}

ALL_CASES = [(family, case, seed)
             for family, cases in (("tweets", TWEET_CASES),
                                   ("checkins", CHECKIN_CASES))
             for case in cases for seed in SEEDS]


class TestRecordBytes:
    @pytest.mark.parametrize("family,case,seed", ALL_CASES)
    def test_stream_matches_the_recorded_digest(self, family, case, seed):
        events, truth = _generate(family, case, seed)
        assert _digest(events, truth) == DIGESTS[f"{family}/{case}/{seed}"]

    @pytest.mark.parametrize("family,case", sorted(
        {(family, case) for family, case, _ in ALL_CASES}))
    def test_values_are_compact_json(self, family, case):
        events, _ = _generate(family, case, 1)
        for event in events:
            value = event.value
            assert json.dumps(json.loads(value),
                              separators=(",", ":")) == value

    def test_free_text_is_escaped(self):
        retail = CheckinGenerator(seed=0, retail_fraction=1.0,
                                  hot_retailer="Sam's Club", hot_share=1.0)
        values = [e.value for e in retail.take_with_truth(200)[0]]
        names = {parse_checkin(v)["venue"]["name"] for v in values}
        assert names == {"Sam's Club", "SAMS CLUB", "Sam’s Club #6279"}
        assert any("Sam\\u2019s Club #6279" in v for v in values)
        burst = TweetGenerator(seed=0, bursts=[
            TopicBurst(ODD_TOPIC, 0.0, 1.0, 100.0)]).take(50)
        assert any(json.loads(e.value)["topics"] == [ODD_TOPIC]
                   for e in burst)
