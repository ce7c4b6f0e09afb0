"""Twitter user reputation — Example 3.

"The third application maintains a reputation score for each Twitter user
as users tweet. It analyzes each incoming tweet to determine if the tweet
affects the score of any users, then changes those scores ... if a user A
retweets or replies to a user B, then the score of B may change, depending
on the score of A. The output is a real-time data structure of
<user, score> pairs."

The interesting constraint is that B's score change *depends on A's
score*, but slates are strictly per-key: the updater for B cannot read A's
slate. The MapUpdate-idiomatic solution (and the one we implement) is a
two-hop flow through the updater itself:

* M1 turns each tweet into an *activity* event keyed by the author A
  (carrying who A referenced).
* U1 on an activity event updates A's own score and — if A referenced B —
  **publishes an endorsement event keyed by B carrying A's current
  score** onto S3.
* U1 also subscribes to S3: on an endorsement it adjusts B's score using
  the attached ``from_score``.

U1 therefore subscribes to two streams and publishes into one of them — a
cycle through the workflow graph, which Section 3 explicitly allows (and
which the output-timestamp rule keeps well-defined).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.core.application import Application
from repro.core.event import Event
from repro.core.operators import Context, Mapper, Updater
from repro.core.slate import Slate

#: Score increment for simply tweeting.
ACTIVITY_BOOST = 0.05
#: Fraction of the endorser's score transferred by a retweet.
RETWEET_WEIGHT = 0.10
#: Fraction transferred by a reply.
REPLY_WEIGHT = 0.04
#: Starting score for a fresh user.
INITIAL_SCORE = 1.0


class ReputationMapper(Mapper):
    """M1: tweet → activity event keyed by the author.

    The value records whether the tweet endorses another user (retweet or
    reply) and whom.
    """

    cost_factor = 1.2

    def map(self, ctx: Context, event: Event) -> None:
        tweet = self._parse(event.value)
        if tweet is None:
            return
        author = str(tweet.get("user", event.key))
        activity: Dict[str, Any] = {"type": "activity"}
        if "retweet_of" in tweet:
            activity["endorses"] = str(tweet["retweet_of"])
            activity["kind"] = "retweet"
        elif "reply_to" in tweet:
            activity["endorses"] = str(tweet["reply_to"])
            activity["kind"] = "reply"
        ctx.publish(self.config.get("output_sid", "S2"), key=author,
                    value=json.dumps(activity))

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


class ReputationUpdater(Updater):
    """U1: per-user score slate; activity and endorsement handling.

    Slate fields: ``score`` (the reputation), ``tweets`` (activity
    count), ``endorsements_received``.
    """

    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"score": INITIAL_SCORE, "tweets": 0,
                "endorsements_received": 0}

    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        record = json.loads(event.value) if isinstance(event.value, str) \
            else dict(event.value or {})
        kind = record.get("type")
        if kind == "activity":
            slate["score"] = slate["score"] + ACTIVITY_BOOST
            slate["tweets"] += 1
            endorsee = record.get("endorses")
            if endorsee and endorsee != event.key:
                weight = (RETWEET_WEIGHT if record.get("kind") == "retweet"
                          else REPLY_WEIGHT)
                ctx.publish(self.config.get("endorse_sid", "S3"),
                            key=str(endorsee),
                            value=json.dumps({
                                "type": "endorsement",
                                "from": event.key,
                                "from_score": slate["score"],
                                "weight": weight,
                            }))
        elif kind == "endorsement":
            transferred = (float(record.get("from_score", 0.0))
                           * float(record.get("weight", 0.0)))
            slate["score"] = slate["score"] + transferred
            slate["endorsements_received"] += 1


def build_reputation_app() -> Application:
    """Assemble the reputation workflow (with its S3 self-loop)."""
    app = Application("user-reputation")
    app.add_stream("S1", external=True, description="Twitter stream")
    app.add_stream("S2", description="author activity events")
    app.add_stream("S3", description="endorsement events (self-loop)")
    app.add_mapper("M1", ReputationMapper, subscribes=["S1"],
                   publishes=["S2"])
    app.add_updater("U1", ReputationUpdater, subscribes=["S2", "S3"],
                    publishes=["S3"])
    return app.validate()
