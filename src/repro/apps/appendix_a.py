"""Figures 3 and 4, ported line for line onto the byte-level API.

The paper's appendix shows ``RetailerMapper`` (Figure 3) and ``Counter``
(Figure 4) in Java. This module is the closest Python rendering: the
same regexes (including the curly apostrophe in ``Sam’s Club``), the
same publish-the-original-event behaviour, the same parse-int-from-slate
counter with its ``NumberFormatException`` fallback.
"""

from __future__ import annotations

import json
import re
from typing import Optional

from repro.core.application import Application
from repro.core.binary import (BinaryMapper, BinaryUpdater,
                               PerformerUtilities)

#: Figure 3's patterns, verbatim: ``(?i)\s*wal.*mart.*`` and
#: ``(?i)\s*sam.*s\s*club\s*``.
WALMART_PATTERN = re.compile(r"(?i)\s*wal.*mart.*")
SAMSCLUB_PATTERN = re.compile(r"(?i)\s*sam.*s\s*club\s*")


class RetailerMapper(BinaryMapper):
    """Figure 3: match the venue name; publish to ``S_2`` on a hit.

    The Java original stubs ``getVenue`` ("actual checkin parsing would
    go here"); we parse the checkin JSON for real, which is the only
    functional difference.
    """

    def map_bytes(self, submitter: PerformerUtilities, stream: str,
                  key: bytes, event: bytes) -> None:
        checkin = event.decode("utf-8", errors="replace")
        venue = self._get_venue(checkin)
        retailer: Optional[str] = None
        if WALMART_PATTERN.match(venue):
            retailer = "Walmart"
        elif SAMSCLUB_PATTERN.match(venue):
            retailer = "Sam's Club"
        if retailer is not None:
            submitter.publish("S_2", retailer.encode("utf-8"), event)

    @staticmethod
    def _get_venue(checkin: str) -> str:
        """Figure 3's ``getVenue`` — real parsing instead of the stub."""
        try:
            record = json.loads(checkin)
        except ValueError:
            return ""
        venue = record.get("venue")
        if isinstance(venue, dict) and isinstance(venue.get("name"), str):
            return venue["name"]
        return ""


class Counter(BinaryUpdater):
    """Figure 4: parse the count from the slate bytes, increment,
    ``replaceSlate`` — including the catch-NumberFormatException
    fallback to zero."""

    def update_bytes(self, submitter: PerformerUtilities, stream: str,
                     key: bytes, event: bytes,
                     slate: Optional[bytes]) -> None:
        count = 0
        try:
            if slate is not None:
                count = int(slate.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            count = 0
        count += 1
        submitter.replaceSlate(str(count).encode("utf-8"))


def build_appendix_app() -> Application:
    """The Figure 1(b) workflow wired from the Appendix A classes.

    Note the appendix publishes to stream ``"S_2"`` (with an
    underscore), so that is the internal stream name here.
    """
    app = Application("appendix-a")
    app.add_stream("S1", external=True,
                   description="Foursquare checkin stream")
    app.add_stream("S_2", description="retailer checkins (Appendix A)")
    app.add_mapper("M1", RetailerMapper, subscribes=["S1"],
                   publishes=["S_2"])
    app.add_updater("U1", Counter, subscribes=["S_2"])
    return app.validate()
