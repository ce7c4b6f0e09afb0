"""Retailer checkin counting — Examples 1 and 4, Figures 1(b), 3, and 4.

The application "monitors the Foursquare-checkin stream to count the number
of checkins by retailer". Workflow (Figure 1(b)): external stream S1 →
map M1 (identify retailer) → stream S2 → update U1 (count per retailer).
The output is the set of slates maintained by U1.

:class:`RetailerMapper` is the Python rendering of Figure 3's Java code —
including the paper's exact regexes for Walmart and Sam's Club — extended
with the other retailers the examples name. :class:`CheckinCounter` mirrors
Figure 4's ``Counter`` updater.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Optional, Pattern, Sequence, Tuple

from repro.core.application import Application
from repro.core.event import Event
from repro.core.operators import Context, Mapper, Updater
from repro.core.slate import Slate

#: (canonical name, venue-name pattern). The first two patterns are
#: verbatim from Figure 3.
RETAILER_PATTERNS: Sequence[Tuple[str, Pattern[str]]] = (
    ("Walmart", re.compile(r"(?i)\s*wal.?mart(?!.*sam).*")),
    ("Sam's Club", re.compile(r"(?i)\s*sam.?s\s*club\s*.*")),
    ("Best Buy", re.compile(r"(?i)\s*best\s*buy.*")),
    ("JCPenney", re.compile(r"(?i)\s*j\.?\s*c\.?\s*penney.*")),
    ("Target", re.compile(r"(?i)\s*(super)?target\b.*")),
)


def match_retailer(venue_name: str) -> Optional[str]:
    """Canonical retailer for a venue name, or None if unrecognized."""
    for name, pattern in RETAILER_PATTERNS:
        if pattern.match(venue_name):
            return name
    return None


class RetailerMapper(Mapper):
    """M1: inspect each checkin; emit the retailer (if any) to S2.

    Figure 3's ``RetailerMapper``: parse the checkin JSON, extract the
    venue name, match it against retailer patterns, and
    ``submitter.publish("S_2", retailer, event)`` on a hit.

    Config keys:
        output_sid: Stream to publish hits to (default ``"S2"``).
    """

    #: Checkin parsing + several regex matches — noticeably more work
    #: than a trivial map (simulator service-time hint).
    cost_factor = 1.5

    def map(self, ctx: Context, event: Event) -> None:
        venue = self._venue_name(event.value)
        if venue is None:
            return
        retailer = match_retailer(venue)
        if retailer is not None:
            ctx.publish(self.config.get("output_sid", "S2"),
                        key=retailer, value=event.value)

    @staticmethod
    def _venue_name(value: Any) -> Optional[str]:
        """Extract the venue name from a checkin payload (JSON or dict)."""
        if isinstance(value, str):
            try:
                value = json.loads(value)
            except ValueError:
                return None
        if not isinstance(value, dict):
            return None
        venue = value.get("venue")
        if isinstance(venue, dict):
            name = venue.get("name")
            return name if isinstance(name, str) else None
        return None


class CheckinCounter(Updater):
    """U1: one slate per retailer with a single ``count`` field.

    Figure 4's ``Counter``: read the current count from the slate (0 when
    the slate is fresh), increment, write back. "For each retailer U1
    maintains a slate with a count variable initially set to 0."
    """

    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"count": 0}

    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        slate["count"] += 1


def build_retailer_app() -> Application:
    """Assemble the Figure 1(b) workflow: S1 -> M1 -> S2 -> U1.

    Returns:
        A validated application whose output is U1's slates.
    """
    app = Application("retailer-checkin-counts")
    app.add_stream("S1", external=True,
                   description="Foursquare checkin stream")
    app.add_stream("S2", description="recognized-retailer checkins")
    app.add_mapper("M1", RetailerMapper, subscribes=["S1"],
                   publishes=["S2"])
    app.add_updater("U1", CheckinCounter, subscribes=["S2"])
    return app.validate()
