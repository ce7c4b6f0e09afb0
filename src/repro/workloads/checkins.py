"""Synthetic Foursquare checkin stream (Examples 1 and 4).

The paper's first motivating application counts Foursquare checkins per
retailer: "For each incoming checkin, the application analyzes the text of
the checkin (typically represented as a JSON object) to identify the
retailer (if any)". At Kosmix the stream ran at ~1.5 M checkins/day
(Section 5). We generate seeded checkins whose venue names mix recognized
retailers (with messy real-world spellings, so the Figure 3 regexes have
something to chew on) and non-retail venues.
"""

from __future__ import annotations

import json
import random
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.core.event import Event
from repro.errors import ConfigurationError
from repro.workloads.zipf import ZipfSampler

#: (canonical retailer name, venue-name spellings seen in checkins).
RETAILER_SPELLINGS: Sequence[Tuple[str, Sequence[str]]] = (
    ("Walmart", ("Walmart", "Wal-Mart Supercenter", "WALMART #3921",
                 "walmart neighborhood market")),
    ("Sam's Club", ("Sam's Club", "SAMS CLUB", "Sam’s Club #6279")),
    ("Best Buy", ("Best Buy", "BEST BUY Store 482", "best buy mobile")),
    ("JCPenney", ("JCPenney", "JC Penney", "jcpenney salon")),
    ("Target", ("Target", "SuperTarget", "Target Store T-1038")),
)

#: Zipf skew across retailers; ``hot_retailer`` makes the explicit
#: hotspot (Example 6's Best Buy scenario).
RETAILER_EXPONENT = 0.8

#: Venues that should *not* match any retailer.
NON_RETAIL_VENUES = (
    "Blue Bottle Coffee", "Golden Gate Park", "SFO Terminal 2",
    "Mission Dolores Park", "City Hall", "Joe's Diner",
    "24th St BART", "The Fillmore", "Main Library", "Pier 39",
)


class CheckinGenerator:
    """Seeded synthetic checkin stream.

    Args:
        sid: External stream ID (e.g. ``"S1"``).
        rate_per_s: Checkins per second (the paper's production rate is
            ~17/s; benches crank this up).
        retail_fraction: Fraction of checkins at recognized retailers.
        num_users: Checkin-user population (Zipf-skewed).
        hot_retailer: When set, that retailer receives ``hot_share`` of
            all retail checkins (overrides the Zipf draw) — the explicit
            hotspot knob for bench E5.
        seed: Master seed.
    """

    def __init__(
        self,
        sid: str = "S1",
        rate_per_s: float = 100.0,
        retail_fraction: float = 0.4,
        num_users: int = 50_000,
        hot_retailer: str = "",
        hot_share: float = 0.8,
        seed: int = 0,
    ) -> None:
        if rate_per_s <= 0:
            raise ConfigurationError("rate must be positive")
        if not 0.0 <= retail_fraction <= 1.0:
            raise ConfigurationError("retail_fraction must be in [0, 1]")
        names = [name for name, _ in RETAILER_SPELLINGS]
        if hot_retailer and hot_retailer not in names:
            raise ConfigurationError(
                f"unknown hot retailer {hot_retailer!r}; choices {names}"
            )
        self.sid = sid
        self.rate_per_s = rate_per_s
        self.retail_fraction = retail_fraction
        self.hot_retailer = hot_retailer
        self.hot_share = hot_share
        self._users = ZipfSampler(num_users, 1.0, seed)
        self._retailers = ZipfSampler(len(RETAILER_SPELLINGS),
                                      RETAILER_EXPONENT, seed + 1)
        self._rng = random.Random(seed + 2)
        self._checkin_id = 0

    def _venue(self) -> Tuple[str, str]:
        """Pick a venue; returns (venue display name, true retailer or '')."""
        if self._rng.random() >= self.retail_fraction:
            return self._rng.choice(NON_RETAIL_VENUES), ""
        if self.hot_retailer and self._rng.random() < self.hot_share:
            index = next(i for i, (name, _) in enumerate(RETAILER_SPELLINGS)
                         if name == self.hot_retailer)
        else:
            index = self._retailers.sample()
        name, spellings = RETAILER_SPELLINGS[index]
        return self._rng.choice(list(spellings)), name

    def _make_checkin(self, ts: float) -> Tuple[str, str, str]:
        """Build one checkin; returns (user key, JSON value, retailer)."""
        self._checkin_id += 1
        user = f"user{self._users.sample()}"
        venue, retailer = self._venue()
        record: Dict[str, object] = {
            "id": self._checkin_id,
            "user": user,
            "ts": ts,
            "venue": {"name": venue,
                      "lat": round(37.70 + self._rng.random() * 0.12, 5),
                      "lon": round(-122.51 + self._rng.random() * 0.14, 5)},
        }
        return user, json.dumps(record, separators=(",", ":")), retailer

    def events(self, duration_s: float, start_ts: float = 0.0
               ) -> Iterator[Event]:
        """Generate the stream for ``duration_s`` seconds."""
        interval = 1.0 / self.rate_per_s
        count = int(self.rate_per_s * duration_s)
        for i in range(count):
            ts = start_ts + i * interval
            user, value, _ = self._make_checkin(ts)
            yield Event(self.sid, ts, user, value)

    def take_with_truth(self, count: int, start_ts: float = 0.0
                        ) -> Tuple[List[Event], Dict[str, int]]:
        """Generate ``count`` checkins plus ground-truth retailer counts.

        Tests compare the application's slate counts to this truth.
        """
        interval = 1.0 / self.rate_per_s
        events: List[Event] = []
        truth: Dict[str, int] = {}
        for i in range(count):
            ts = start_ts + i * interval
            user, value, retailer = self._make_checkin(ts)
            events.append(Event(self.sid, ts, user, value))
            if retailer:
                truth[retailer] = truth.get(retailer, 0) + 1
        return events, truth


def parse_checkin(value: str) -> Dict[str, object]:
    """Decode a checkin JSON payload (application-side helper)."""
    return json.loads(value)
