"""User and venue profile slates — the Section 5 production state.

"It kept over 30 millions slates of user profiles and 4 million slates of
venue profiles." Those were two updaters over the same checkin stream:
one keyed by user, one keyed by venue. This module is that application:

* :class:`UserProfileUpdater` — per-user slate with checkin count, last
  activity time, and the set of venue categories the user frequents
  (bounded, like the "set of user interests ... inferred from the tweets
  seen so far" the paper describes as slate content);
* :class:`VenueProfileUpdater` — per-venue slate with checkin count,
  an approximate distinct-visitor count (a small hash sketch — exact
  sets would violate the keep-slates-small rule at production scale),
  and peak hour-of-day.

The per-updater TTL knob demonstrates the §4.2 active-working-set story:
give the user updater a TTL ("only active Twitter users") and the user
slate population tracks recent activity instead of all history.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.cluster.hashring import stable_hash64
from repro.core.application import Application
from repro.core.event import Event
from repro.core.operators import Context, Mapper, Updater
from repro.core.slate import Slate

#: Sketch registers for the approximate distinct-visitor count. 64
#: single-byte registers keep the slate tiny (§5's size advice).
_SKETCH_REGISTERS = 64
#: Maximum venue-name interests kept per user slate.
_MAX_INTERESTS = 16


class ProfileMapper(Mapper):
    """M1: fan each checkin out under both its user and its venue key.

    Emits to two streams: ``BY_USER`` (key = user) and ``BY_VENUE``
    (key = venue name), each carrying the original checkin payload.
    """

    def map(self, ctx: Context, event: Event) -> None:
        record = self._parse(event.value)
        if record is None:
            return
        user = record.get("user")
        venue = record.get("venue", {})
        venue_name = venue.get("name") if isinstance(venue, dict) else None
        if isinstance(user, str):
            ctx.publish(self.config.get("user_sid", "BY_USER"),
                        key=user, value=event.value)
        if isinstance(venue_name, str):
            ctx.publish(self.config.get("venue_sid", "BY_VENUE"),
                        key=venue_name, value=event.value)

    @staticmethod
    def _parse(value: Any) -> Optional[Dict[str, Any]]:
        if isinstance(value, dict):
            return value
        if isinstance(value, str):
            try:
                parsed = json.loads(value)
            except ValueError:
                return None
            return parsed if isinstance(parsed, dict) else None
        return None


class UserProfileUpdater(Updater):
    """U_user: one profile slate per user.

    Fields: ``checkins``, ``last_seen_ts``, ``interests`` (recent venue
    names, bounded), ``first_seen_ts``.
    """

    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"checkins": 0, "last_seen_ts": 0.0, "first_seen_ts": -1.0,
                "interests": []}

    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        record = json.loads(event.value)
        slate["checkins"] += 1
        slate["last_seen_ts"] = event.ts
        if slate["first_seen_ts"] < 0:
            slate["first_seen_ts"] = event.ts
        venue = record.get("venue", {})
        name = venue.get("name") if isinstance(venue, dict) else None
        if isinstance(name, str):
            interests: List[str] = slate["interests"]
            if name in interests:
                interests.remove(name)
            interests.append(name)                 # most recent last
            slate["interests"] = interests[-_MAX_INTERESTS:]


class VenueProfileUpdater(Updater):
    """U_venue: one profile slate per venue.

    ``unique_visitors_estimate`` uses a tiny stochastic-averaging sketch:
    each user hashes to one of 64 registers which remembers the maximum
    number of leading zero bits seen — a miniature HyperLogLog, accurate
    to roughly ±15% while costing 64 small ints per slate.
    """

    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"checkins": 0, "sketch": [0] * _SKETCH_REGISTERS,
                "hour_histogram": [0] * 24}

    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        record = json.loads(event.value)
        slate["checkins"] += 1
        user = str(record.get("user", ""))
        digest = stable_hash64(user)
        register = digest % _SKETCH_REGISTERS
        remainder = digest // _SKETCH_REGISTERS
        rank = 1
        while remainder % 2 == 0 and rank < 50:
            rank += 1
            remainder //= 2
        sketch = slate["sketch"]
        if rank > sketch[register]:
            sketch[register] = rank
            slate["sketch"] = sketch
        hour = int((event.ts % 86_400) // 3600)
        histogram = slate["hour_histogram"]
        histogram[hour] += 1
        slate["hour_histogram"] = histogram


def estimate_unique_visitors(slate_fields: Dict[str, Any]) -> float:
    """Approximate distinct visitors from a venue slate's sketch.

    Standard HyperLogLog estimation over the max-rank registers, with
    the linear-counting correction for small cardinalities.
    """
    import math

    sketch = slate_fields.get("sketch")
    if not sketch:
        return 0.0
    m = len(sketch)
    alpha = 0.7213 / (1.0 + 1.079 / m)  # ≈ 0.709 for m = 64
    harmonic = sum(2.0 ** (-register) for register in sketch)
    estimate = alpha * m * m / harmonic
    zeros = sketch.count(0)
    if estimate <= 2.5 * m and zeros > 0:
        return m * math.log(m / zeros)
    return estimate


def peak_hour(slate_fields: Dict[str, Any]) -> int:
    """The venue's busiest hour of day (0-23)."""
    histogram = slate_fields.get("hour_histogram") or [0]
    return max(range(len(histogram)), key=lambda h: histogram[h])


def build_profiles_app(user_ttl: Optional[float] = None) -> Application:
    """Assemble the dual-profile workflow over one checkin stream.

    Args:
        user_ttl: Optional TTL for user slates ("only active users",
            §4.2); venues live forever.
    """
    app = Application("profiles")
    app.add_stream("S1", external=True,
                   description="Foursquare checkin stream")
    app.add_stream("BY_USER", description="checkins keyed by user")
    app.add_stream("BY_VENUE", description="checkins keyed by venue")
    app.add_mapper("M1", ProfileMapper, subscribes=["S1"],
                   publishes=["BY_USER", "BY_VENUE"])
    user_config = ({"slate_ttl": user_ttl} if user_ttl is not None else {})
    app.add_updater("U_user", UserProfileUpdater, subscribes=["BY_USER"],
                    config=user_config)
    app.add_updater("U_venue", VenueProfileUpdater,
                    subscribes=["BY_VENUE"])
    return app.validate()
