"""The applications the workloads run, and the operator classes the
tracer wraps.

The operators are subclasses owned by the benchmark, so the traced run
can patch *their* ``map``/``update`` attributes without touching the
classes under ``src/``.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.apps.reputation import ReputationMapper, ReputationUpdater
from repro.core.application import Application
from repro.core.event import Event
from repro.core.operators import Context, Mapper, Updater


class ChainEcho(Mapper):
    """Republish the event unchanged on the configured stream."""

    def map(self, ctx: Context, event: Event) -> None:
        ctx.publish(self.config["output_sid"], event.key, event.value)


class ChainCount(Updater):
    """Count events per key."""

    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"count": 0}

    def update(self, ctx: Context, event: Event, slate: Any) -> None:
        slate["count"] += 1


def build_chain_app() -> Application:
    """The E1 chain S1 -> M1 -> S2 -> M2 -> S3 -> U1: two trivial map hops
    and a counter, so the data plane (not operator CPU) does the work."""
    app = Application("bench-chain")
    app.add_stream("S1", external=True)
    app.add_stream("S2")
    app.add_stream("S3")
    app.add_mapper("M1", ChainEcho, subscribes=["S1"], publishes=["S2"],
                   config={"output_sid": "S2"})
    app.add_mapper("M2", ChainEcho, subscribes=["S2"], publishes=["S3"],
                   config={"output_sid": "S3"})
    app.add_updater("U1", ChainCount, subscribes=["S3"])
    return app.validate()


class TweetMapper(ReputationMapper):
    """``ReputationMapper`` under a name the tracer may patch."""


class TweetUpdater(ReputationUpdater):
    """``ReputationUpdater`` that also reports each finished delivery.

    ``config["on_delivery"]`` (when given) is called with the event's
    timestamp after the update; the open-loop phase sets it to record
    completion times against the send schedule. Threads append to the
    sink concurrently; ``list.append`` is atomic.
    """

    def update(self, ctx: Context, event: Event, slate: Any) -> None:
        super().update(ctx, event, slate)
        sink = self.config.get("on_delivery")
        if sink is not None:
            sink(event.ts)


def build_tweet_app(on_delivery=None) -> Application:
    """The reputation workflow (JSON parse in M1, two-hop cycle through
    U1) with the benchmark's operator subclasses."""
    app = Application("bench-reputation")
    app.add_stream("S1", external=True)
    app.add_stream("S2")
    app.add_stream("S3")
    app.add_mapper("M1", TweetMapper, subscribes=["S1"], publishes=["S2"])
    app.add_updater("U1", TweetUpdater, subscribes=["S2", "S3"],
                    publishes=["S3"],
                    config={"on_delivery": on_delivery})
    return app.validate()


#: Integer slate fields of the reputation app that do not depend on the
#: order deliveries interleave in (``score`` does, by design).
ORDER_FREE_FIELDS = ("tweets", "endorsements_received")


def order_free_view(slates: Dict[str, Any]) -> Dict[str, List[int]]:
    """``{user: [tweets, endorsements_received]}`` from slates given as
    dicts or ``Slate`` objects."""
    return {key: [slate[name] for name in ORDER_FREE_FIELDS]
            for key, slate in slates.items()}
