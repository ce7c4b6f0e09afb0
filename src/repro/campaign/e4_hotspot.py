"""E4 — hotspot handling via two-choice dispatch (Sections 4.5, 5).

Paper: key distributions are "strongly skewed (e.g., follow a Zipfian
distribution)"; a single-owner worker "can become a hotspot: if it is
overloaded by a huge number of events with key k1 already in its queue, a
long time may pass before the worker gets around to processing events
with some key k2". Muppet 2.0's secondary queue relieves the hotspot
while bounding slate contention to two workers. One machine, heavy Zipf
skew, single-choice against two-choice dispatch. E4b, the k1/k2 story of
a cold key stuck behind a hot key's queue, reads the same two runs: with
one updater, U1's latency is the run's.
"""

from __future__ import annotations

from typing import Any, List, Mapping

from repro.campaign.claims import (
    Metrics,
    Row,
    by_param,
    e_row,
    failed,
    latency_ms,
    run_counting,
)
from repro.cluster import ClusterSpec
from repro.sim import ENGINE_MUPPET2, SimConfig, constant_rate
from repro.workloads.zipf import zipf_key_fn


def dispatch_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    two_choice = bool(params["two_choice"])
    config = SimConfig(
        engine=ENGINE_MUPPET2, two_choice=two_choice, queue_capacity=100_000
    )
    # Exponent 1.6: the top key draws ~half of all events — a hotspot.
    source = constant_rate(
        "S1",
        rate_per_s=8_000.0,
        duration_s=0.5,
        key_fn=zipf_key_fn("u", 500, 1.6, seed=4),
    )
    _, report = run_counting(source, ClusterSpec.uniform(1, cores=8), config, 30.0)
    return {
        **latency_ms(report, ("p50", "p99", "maximum")),
        "queue_peak": report.queue_peak_depth,
        "max_workers_per_slate": report.max_workers_per_slate,
        "spills": report.dispatch_stats.get("spills", 0),
        "slate_contention_events": report.slate_contention_events,
        "lost": report.counters.lost_total(),
    }


def verify_dispatch(rows: List[Row]) -> List[str]:
    """Two-choice cuts tail latency and queue depth under skew, never
    puts more than two workers on one slate, and loses nothing."""
    cells = by_param(rows, "two_choice")
    single, double = cells[False], cells[True]
    return failed(
        (double["p99_ms"] < single["p99_ms"], "two-choice should cut the tail"),
        (double["queue_peak"] <= single["queue_peak"], "two-choice queued deeper"),
        (double["max_workers_per_slate"] <= 2, "more than two workers on one slate"),
        (single["max_workers_per_slate"] == 1, "single-choice shared a slate"),
        (single["lost"] == 0 and double["lost"] == 0, "events were lost"),
    )


SPECS = (
    e_row(
        "e4_hotspot_dispatch",
        "E4/E4b (SS4.5, SS5): two-choice dispatch relieves overloaded "
        "single-owner workers; slate contention stays <= 2 workers; an incoming "
        "event locks no more than two queues; events with key k2 can be placed "
        "on a second worker when the first is bogged down with k1.",
        dispatch_cell,
        {"two_choice": [False, True]},
        verify_dispatch,
    ),
)
