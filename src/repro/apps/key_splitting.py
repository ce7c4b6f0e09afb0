"""Key splitting for hotspot updaters — Example 6.

"Instead of using just a single updater U, we can use a set of updaters,
each of which counts just a subset of Best Buy events ... we can modify
the map function to replace the single key 'Best Buy' with two keys 'Best
Buy1' and 'Best Buy2' ... we modify the update function so that it
regularly emits the counts of 'Best Buy1' events and 'Best Buy2' events,
respectively, as new events under the key 'Best Buy'. Finally, we write a
new update function that receives the events of key 'Best Buy' to
determine the total counts."

This works because counting is associative and commutative. The invariant
(asserted by tests): the merged totals equal the unsplit totals, for any
split factor and any emit cadence.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Sequence

from repro.core.application import Application
from repro.core.event import Event
from repro.core.operators import Context, Mapper, Updater
from repro.core.slate import Slate
from repro.apps.retailer_count import RetailerMapper

SPLIT_SEPARATOR = "#"


def split_key(base_key: str, index: int) -> str:
    """The i-th sub-key of a hot key (``"Best Buy#1"``)."""
    return f"{base_key}{SPLIT_SEPARATOR}{index}"


def base_key(key: str) -> str:
    """Recover the original key from a split sub-key (idempotent)."""
    base, sep, suffix = key.rpartition(SPLIT_SEPARATOR)
    if sep and suffix.isdigit():
        return base
    return key


class SplittingRetailerMapper(RetailerMapper):
    """M1′: like :class:`RetailerMapper`, but hot keys fan out to
    ``num_splits`` sub-keys (round-robin, deterministic).

    Config keys:
        hot_keys: Retailer names to split (e.g. ``["Best Buy"]``).
        num_splits: Sub-keys per hot key (the paper's example uses 2).
        output_sid: Defaults to ``"S2"``.
    """

    def __init__(self, config: Optional[Dict[str, Any]] = None,
                 name: str = "") -> None:
        super().__init__(config, name)
        self._hot = set(self.config.get("hot_keys", []))
        self._num_splits = max(1, int(self.config.get("num_splits", 2)))
        self._round_robin: Dict[str, int] = {}

    def map(self, ctx: Context, event: Event) -> None:
        venue = self._venue_name(event.value)
        if venue is None:
            return
        retailer = self._match(venue)
        if retailer is None:
            return
        key = retailer
        if retailer in self._hot:
            index = self._round_robin.get(retailer, 0)
            self._round_robin[retailer] = (index + 1) % self._num_splits
            key = split_key(retailer, index)
        ctx.publish(self.config.get("output_sid", "S2"), key=key,
                    value=event.value)

    @staticmethod
    def _match(venue: str) -> Optional[str]:
        from repro.apps.retailer_count import match_retailer

        return match_retailer(venue)


class PartialCounter(Updater):
    """U1′: counts one sub-key; regularly emits the *delta* under the
    original key.

    A flush timer guarantees the tail is reported: the first unreported
    event arms a timer ``flush_interval_s`` ahead; when it fires, any
    remaining delta is emitted. End-of-stream drains therefore merge
    *exactly* the ingested total (the Example 6 invariant).

    Config keys:
        emit_every: Publish the accumulated delta every N events
            (default 10). Smaller = fresher merged totals, more traffic.
        flush_interval_s: Tail-flush timer delay (default 1.0 s).
        output_sid: Defaults to ``"S3"``.
    """

    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"count": 0, "unreported": 0, "flush_armed": False}

    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        slate["count"] += 1
        slate["unreported"] += 1
        emit_every = max(1, int(self.config.get("emit_every", 10)))
        if slate["unreported"] >= emit_every:
            self._emit(ctx, event.key, slate)
        elif not slate["flush_armed"]:
            slate["flush_armed"] = True
            interval = float(self.config.get("flush_interval_s", 1.0))
            ctx.set_timer(event.ts + interval)

    def on_timer(self, ctx: Context, key: str, slate: Slate,
                 payload: Any = None) -> None:
        slate["flush_armed"] = False
        if slate["unreported"] > 0:
            self._emit(ctx, key, slate)

    def _emit(self, ctx: Context, key: str, slate: Slate) -> None:
        ctx.publish(self.config.get("output_sid", "S3"),
                    key=base_key(key),
                    value=json.dumps({"delta": slate["unreported"],
                                      "from": key}))
        slate["unreported"] = 0


class TotalCounter(Updater):
    """U2′: sums the partial deltas back into one total per retailer."""

    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"count": 0}

    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        record = json.loads(event.value)
        slate["count"] += int(record["delta"])


def build_split_app(
    hot_keys: Sequence[str] = ("Best Buy",),
    num_splits: int = 2,
    emit_every: int = 10,
) -> Application:
    """Assemble the Example 6 workflow (split → partial → merge)."""
    app = Application("retailer-counts-split")
    app.add_stream("S1", external=True,
                   description="Foursquare checkin stream")
    app.add_stream("S2", description="retailer events (hot keys split)")
    app.add_stream("S3", description="partial-count deltas")
    app.add_mapper("M1", SplittingRetailerMapper, subscribes=["S1"],
                   publishes=["S2"],
                   config={"hot_keys": list(hot_keys),
                           "num_splits": num_splits})
    app.add_updater("U1", PartialCounter, subscribes=["S2"],
                    publishes=["S3"], config={"emit_every": emit_every})
    app.add_updater("U2", TotalCounter, subscribes=["S3"])
    return app.validate()
