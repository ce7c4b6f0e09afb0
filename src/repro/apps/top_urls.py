"""Top-ten URLs on Twitter — the Section 2 application list.

"Other applications include maintaining the top-ten URLs being passed
around on Twitter." Workflow: S1 (tweets) → M1 (extract URLs; key = URL) →
S2 → U1 (per-URL count; republish the running count) → S3 → U2 (a single
``top`` slate holding the current top-N leaderboard).

U2 is a deliberate single-key design: every count update converges on one
slate, which makes this app the canonical *hotspot* workload for bench E4
(and a natural candidate for Example 6's key splitting).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.core.application import Application
from repro.core.event import Event
from repro.core.operators import Context, Mapper, Updater
from repro.core.slate import Slate

#: The single key all leaderboard updates converge on.
LEADERBOARD_KEY = "top"


class UrlMapper(Mapper):
    """M1: emit one event per URL embedded in a tweet, keyed by the URL."""

    def map(self, ctx: Context, event: Event) -> None:
        urls = self._extract(event.value)
        sid = self.config.get("output_sid", "S2")
        for url in urls:
            ctx.publish(sid, key=url, value=None)

    @staticmethod
    def _extract(value: Any) -> List[str]:
        if isinstance(value, str):
            try:
                value = json.loads(value)
            except ValueError:
                return []
        if not isinstance(value, dict):
            return []
        urls = value.get("urls")
        if not isinstance(urls, list):
            return []
        return [str(u) for u in urls]


class UrlCounter(Updater):
    """U1: per-URL running count; republish the count after each hit.

    Config keys:
        publish_every: Emit to S3 only every k-th hit per URL (damps the
            leaderboard hotspot; default 1 = every hit).
    """

    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"count": 0}

    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        slate["count"] += 1
        every = int(self.config.get("publish_every", 1))
        if slate["count"] % every == 0:
            ctx.publish(self.config.get("output_sid", "S3"),
                        key=LEADERBOARD_KEY,
                        value=json.dumps([event.key, slate["count"]]))


class TopUrls(Updater):
    """U2: one ``top`` slate holding the current top-N URLs.

    Config keys:
        top_n: Leaderboard size (default 10, per the paper).
    """

    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"counts": {}, "top": []}

    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        url, count = json.loads(event.value)
        counts = slate["counts"]
        counts[url] = max(int(count), counts.get(url, 0))
        top_n = int(self.config.get("top_n", 10))
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        slate["top"] = [[u, c] for u, c in ranked[:top_n]]
        # Keep the tracking dict bounded: drop URLs far below the cut.
        if len(counts) > 4 * top_n and ranked:
            cutoff = ranked[min(len(ranked), 2 * top_n) - 1][1]
            slate["counts"] = {u: c for u, c in counts.items()
                               if c >= cutoff}
        else:
            slate["counts"] = counts


def build_top_urls_app() -> Application:
    """Assemble the top-URLs workflow."""
    app = Application("top-urls")
    app.add_stream("S1", external=True, description="Twitter stream")
    app.add_stream("S2", description="URL mentions")
    app.add_stream("S3", description="per-URL running counts")
    app.add_mapper("M1", UrlMapper, subscribes=["S1"],
                   publishes=["S2"])
    app.add_updater("U1", UrlCounter, subscribes=["S2"], publishes=["S3"])
    app.add_updater("U2", TopUrls, subscribes=["S3"])
    return app.validate()
