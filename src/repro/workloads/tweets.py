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

Values are JSON strings, like the real Firehose; keys are user IDs. Each
value is formatted directly from fragments built once, byte for byte what
``json.dumps(record, separators=(",", ":"))`` writes for the record: the
free text (every topic, bursts' included) is escaped once by the encoder.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

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

#: Escapes a generated record's free text, once per piece.
_ESCAPE = json.JSONEncoder(separators=(",", ":")).encode


@dataclass(frozen=True)
class TopicBurst:
    """A hot-topic episode: ``topic`` runs at ``multiplier``× its normal
    share during [start_s, end_s) — the earthquake scenario of Section 1."""

    topic: str
    start_s: float
    end_s: float
    multiplier: float = 10.0

    def __post_init__(self) -> None:
        if not self.start_s < self.end_s or self.multiplier <= 0:
            raise ConfigurationError(
                "a burst needs start_s < end_s and a positive multiplier")


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
        if min(retweet_prob, reply_prob) < 0 or retweet_prob + reply_prob > 1:
            raise ConfigurationError(
                "retweet_prob and reply_prob must be >= 0 with sum <= 1")
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
        # Each topic's "text" and "topics" members, escaped once.
        self._topic_json = {topic: '"text":%s,"topics":[%s]' % (
            _ESCAPE(f"talking about {topic} right now #{topic}"),
            _ESCAPE(topic)) for topic in (*TOPICS, *(b.topic for b in bursts))}

    def _pick_topic(self, ts: float) -> str:
        """Topic choice honoring the first burst active at time ``ts``."""
        for burst in self.bursts:  # a loop: no list, no comprehension frame
            if burst.start_s <= ts < burst.end_s:
                base = 1.0 / len(TOPICS)
                boosted = min(0.95, base * burst.multiplier)
                if self._rng.random() < boosted:
                    return burst.topic
                break
        return TOPICS[self._topic_sampler.sample()]

    def _make_tweet(self, ts: float) -> Tuple[str, str]:
        """Build one tweet; returns (user key, JSON value)."""
        self._tweet_id += 1
        user = f"user{self._users.sample()}"
        topic = self._topic_json[self._pick_topic(ts)]
        roll = self._rng.random()
        ref = ""
        if roll < self.retweet_prob:
            ref = f',"retweet_of":"user{self._users.sample()}"'
        elif roll < self.retweet_prob + self.reply_prob:
            ref = f',"reply_to":"user{self._users.sample()}"'
        url = (f',"urls":["http://ex.am/{self._urls.sample()}"]'
               if self._rng.random() < URL_PROB else "")
        return user, (f'{{"id":{self._tweet_id},"user":"{user}",'
                      f'"ts":{float.__repr__(ts)},{topic}{ref}{url}}}')

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
