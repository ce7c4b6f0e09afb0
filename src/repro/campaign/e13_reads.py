"""E13 — reading slates (Sections 4.4, 5).

"The fetch retrieves the slate from Muppet's slate cache ... rather than
from the durable key-value store to ensure an up-to-date reply." And for
bulk dumps, "repeated HTTP slate fetches can be expensive (in network
round trips)", so users log slate data from inside update functions
instead. E13c measures that trade-off over a real socket on localhost.
(E13a, the fetch URI, and E13b, cache-first freshness, are
``tests/muppet/test_http.py``.)
"""

from __future__ import annotations

import json
import time
import urllib.request
from typing import Any, List, Mapping

from repro.apps.counting import count_app, count_events
from repro.campaign.claims import Metrics, Row, e_row, failed
from repro.muppet.http import SlateHTTPServer
from repro.muppet.local import LocalConfig, LocalMuppet
from repro.slates.manager import FlushPolicy


def _fetch(url: str) -> Any:
    with urllib.request.urlopen(url, timeout=5) as response:
        return json.loads(response.read())


def bulk_read_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """N per-slate HTTP round trips versus one store row scan — why the
    paper steers bulk dumps away from repeated fetches."""
    slates = int(params["slates"])
    config = LocalConfig(num_threads=2, flush_policy=FlushPolicy.write_through())
    with LocalMuppet(count_app("e13"), config) as runtime:
        runtime.ingest_many(count_events(slates, keys=slates))
        runtime.drain()
        with SlateHTTPServer(runtime) as server:
            base = f"http://127.0.0.1:{server.port}"
            start = time.perf_counter()
            for i in range(slates):
                _fetch(f"{base}/slate/U1/k{i}")
            gets_s = time.perf_counter() - start
            start = time.perf_counter()
            listing = _fetch(f"{base}/slates/U1")
            bulk_s = time.perf_counter() - start
    return {
        "listed": len(listing["slates"]),
        "individual_gets_ms": round(gets_s * 1e3, 1),
        "bulk_listing_ms": round(bulk_s * 1e3, 1),
    }


def verify_bulk_read(rows: List[Row]) -> List[str]:
    cell = rows[0]["metrics"]
    return failed(
        (cell["listed"] == rows[0]["params"]["slates"], "the listing missed slates"),
        (cell["bulk_listing_ms"] < cell["individual_gets_ms"] / 5, "a listing is < 5x"),
    )


SPECS = (
    e_row(
        "e13c_bulk_reads",
        "E13c (SS5): repeated HTTP slate fetches are expensive in round trips; "
        "bulk consumers should use one scan (or log from the update function). "
        "Times are this machine's.",
        bulk_read_cell,
        {"slates": [200]},
        verify_bulk_read,
        volatile_metrics=("individual_gets_ms", "bulk_listing_ms"),
    ),
)
