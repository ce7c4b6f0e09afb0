"""Synthetic Twitter Firehose (substitution for the real Firehose).

The paper's flagship input is the Twitter Firehose: >100 M tweets/day by
2011 (Section 5), JSON blobs keyed by user ID (Section 3). We generate
seeded synthetic tweets with the properties the applications depend on:

* Zipf-skewed author popularity (drives hotspots and reputation flows);
* a topic vocabulary with skewed popularity and occasional *bursts*
  (drives hot-topic detection — a bursting topic's rate multiplies);
* retweets/replies referencing other users (drives reputation);
* embedded URLs with skewed popularity (Section 2's top-ten URLs input;
  no shipped app reads them, but their draws shape every tweet stream).

Values are JSON strings, like the real Firehose; keys are user IDs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.event import Event
from repro.errors import ConfigurationError
from repro.workloads.zipf import ZipfSampler

#: The topic vocabulary (the paper's "small set of pre-defined
#: topics", Example 2).
TOPICS = (
    "earthquake", "election", "sports", "music", "movies",
    "technology", "weather", "food", "travel", "fashion",
)
#: Fraction of tweets carrying a URL.
URL_PROB = 0.20
#: Zipf skew of author activity and of topic popularity.
USER_EXPONENT = 1.1
TOPIC_EXPONENT = 1.0


@dataclass(frozen=True)
class TopicBurst:
    """A hot-topic episode: ``topic`` runs at ``multiplier``× its normal
    share during [start_s, end_s) — the earthquake scenario of Section 1."""

    topic: str
    start_s: float
    end_s: float
    multiplier: float = 10.0


class TweetGenerator:
    """Seeded synthetic tweet stream.

    Args:
        sid: External stream ID the events carry (e.g. ``"S1"``).
        rate_per_s: Tweets per second.
        num_users: Author population (Zipf-skewed activity).
        bursts: Optional hot-topic episodes.
        retweet_prob / reply_prob: Fractions of tweets that reference
            another user.
        seed: Master seed — identical seeds give identical streams.
    """

    def __init__(
        self,
        sid: str = "S1",
        rate_per_s: float = 1200.0,
        num_users: int = 100_000,
        bursts: Sequence[TopicBurst] = (),
        retweet_prob: float = 0.15,
        reply_prob: float = 0.10,
        seed: int = 0,
    ) -> None:
        if rate_per_s <= 0:
            raise ConfigurationError("rate must be positive")
        self.sid = sid
        self.rate_per_s = rate_per_s
        self.bursts = list(bursts)
        self._users = ZipfSampler(num_users, USER_EXPONENT, seed)
        self._topic_sampler = ZipfSampler(len(TOPICS), TOPIC_EXPONENT, seed + 1)
        self._urls = ZipfSampler(500, 1.2, seed + 2)
        self._rng = random.Random(seed + 3)
        self.retweet_prob = retweet_prob
        self.reply_prob = reply_prob
        self._tweet_id = 0

    def _pick_topic(self, ts: float) -> str:
        """Topic choice honoring active bursts at time ``ts``."""
        active = [b for b in self.bursts if b.start_s <= ts < b.end_s]
        if active:
            burst = active[0]
            base = 1.0 / len(TOPICS)
            boosted = min(0.95, base * burst.multiplier)
            if self._rng.random() < boosted:
                return burst.topic
        return TOPICS[self._topic_sampler.sample()]

    def _make_tweet(self, ts: float) -> Tuple[str, str]:
        """Build one tweet; returns (user key, JSON value)."""
        self._tweet_id += 1
        user = f"user{self._users.sample()}"
        topic = self._pick_topic(ts)
        record: Dict[str, object] = {
            "id": self._tweet_id,
            "user": user,
            "ts": ts,
            "text": f"talking about {topic} right now #{topic}",
            "topics": [topic],
        }
        roll = self._rng.random()
        if roll < self.retweet_prob:
            record["retweet_of"] = f"user{self._users.sample()}"
        elif roll < self.retweet_prob + self.reply_prob:
            record["reply_to"] = f"user{self._users.sample()}"
        if self._rng.random() < URL_PROB:
            record["urls"] = [f"http://ex.am/{self._urls.sample()}"]
        return user, json.dumps(record, separators=(",", ":"))

    def events(self, duration_s: float, start_ts: float = 0.0
               ) -> Iterator[Event]:
        """Generate the stream for ``duration_s`` seconds."""
        interval = 1.0 / self.rate_per_s
        count = int(self.rate_per_s * duration_s)
        for i in range(count):
            ts = start_ts + i * interval
            user, value = self._make_tweet(ts)
            yield Event(self.sid, ts, user, value)

    def take(self, count: int) -> List[Event]:
        """Generate exactly ``count`` tweets, from time 0."""
        interval = 1.0 / self.rate_per_s
        events = []
        for i in range(count):
            ts = i * interval
            user, value = self._make_tweet(ts)
            events.append(Event(self.sid, ts, user, value))
        return events
