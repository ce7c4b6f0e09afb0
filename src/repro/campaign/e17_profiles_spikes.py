"""E17/E18 — production state shape (SS5) and spike resilience (SS1).

E17: "It kept over 30 millions slates of user profiles and 4 million
slates of venue profiles" — two updaters over one stream, with the user
population far larger than the venue population, and user slates bounded
by a TTL to the *active* working set.

E18: "must handle drastic spikes in the tweet volumes" (the SS1
earthquake example). The cluster takes a 10x burst and drains the
backlog; then the flip side: a straggler machine (the hash ring is
capacity-oblivious) drags the tail — context for why the paper's hotspot
tools exist.
"""

from __future__ import annotations

from typing import Any, List, Mapping

from repro.apps.profiles import build_profiles_app, estimate_unique_visitors
from repro.campaign.claims import (
    Metrics,
    Row,
    by_param,
    e_row,
    failed,
    latency_ms,
    run_counting,
)
from repro.cluster import ClusterSpec, MachineSpec, NetworkSpec
from repro.core import Event, ReferenceExecutor
from repro.sim import SimConfig, constant_rate, spiky_rate
from repro.workloads import CheckinGenerator
from repro.workloads.checkins import parse_checkin

DAY = 86_400.0


def profiles_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    generator = CheckinGenerator(
        rate_per_s=2000, seed=501, num_users=int(params["users"])
    )
    events, _ = generator.take_with_truth(8_000)
    result = ReferenceExecutor(build_profiles_app()).run(events)
    users, venues = result.slates_of("U_user"), result.slates_of("U_venue")

    def venue_of(event: Event) -> str:
        return str(parse_checkin(event.value)["venue"]["name"])

    # HLL accuracy on the busiest venue.
    busiest = max(venues, key=lambda v: venues[v]["checkins"])
    visitors = len({e.key for e in events if venue_of(e) == busiest})
    estimate = estimate_unique_visitors(venues[busiest].as_dict())
    return {
        "user_slates": len(users),
        "distinct_users": len({e.key for e in events}),
        "venue_slates": len(venues),
        "distinct_venues": len({venue_of(e) for e in events}),
        "busiest_venue": busiest,
        "busiest_venue_visitors": visitors,
        "sketch_estimate": round(estimate),
        "sketch_error_pct": round(abs(estimate - visitors) / visitors * 100, 1),
    }


def verify_profiles(rows: List[Row]) -> List[str]:
    cell = rows[0]["metrics"]
    return failed(
        (cell["user_slates"] == cell["distinct_users"], "not one slate per user"),
        (cell["venue_slates"] == cell["distinct_venues"], "not one slate per venue"),
        (cell["user_slates"] > 20 * cell["venue_slates"], "no 30M-vs-4M asymmetry"),
        (cell["sketch_error_pct"] < 35, "the distinct-visitor sketch is off"),
    )


def active_users_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """User slates with a TTL track *active* users (SS4.2's example).
    Three "days" of traffic: day keys churn, so without a TTL
    (``ttl_days`` 0) the user population accumulates; with one it
    plateaus. Live slates = those the TTL has not expired by end of run
    (expired ones are garbage the store GC reclaims)."""
    generator = CheckinGenerator(rate_per_s=2000, seed=502, num_users=100_000)
    events: List[Event] = []
    for day in range(3):
        events.extend(generator.take_with_truth(3_000, start_ts=day * DAY)[0])
    ttl = float(params["ttl_days"]) * DAY if params["ttl_days"] else None
    result = ReferenceExecutor(build_profiles_app(user_ttl=ttl)).run(events)
    slates = result.slates_of("U_user").values()
    return {"user_slates": sum(not s.expired(events[-1].ts) for s in slates)}


def verify_active_users(rows: List[Row]) -> List[str]:
    cells = by_param(rows, "ttl_days")
    return failed(
        (cells[1]["user_slates"] < cells[0]["user_slates"], "the TTL shrank nothing"),
    )


def spike_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """A 4x4-core cluster handles ~26k source ev/s in this model; the
    burst is ~2.3x over capacity, so queues must absorb it and drain
    afterwards."""
    burst = int(params["burst_rate"])
    source = spiky_rate(
        "S1", [(2_000, 1.0), (burst, 0.5), (2_000, 1.0)], key_fn=lambda i: f"u{i % 997}"
    )
    cluster = ClusterSpec.uniform(4, cores=4)
    _, report = run_counting(source, cluster, SimConfig(queue_capacity=200_000), 30.0)
    return {
        "offered": 2_000 + burst // 2 + 2_000,
        "processed_deliveries": report.counters.processed,
        "lost": report.counters.lost_total(),
        **latency_ms(report, ("p50", "p99", "maximum")),
        "queue_peak": report.queue_peak_depth,
    }


def verify_spike(rows: List[Row]) -> List[str]:
    cell = rows[0]["metrics"]
    return failed(
        (cell["lost"] == 0, "the burst lost events"),
        (cell["queue_peak"] > 100, "the burst never really queued"),
        (cell["max_ms"] < 5_000, "the backlog did not drain"),
    )


def straggler_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """The hash ring is capacity-oblivious: one weak machine drags the
    tail for the keys it owns — the structural reason the paper explores
    placement and load redistribution."""
    cores = [4, 4, 4, 1 if params["cluster"] == "one-1-core-straggler" else 4]
    machines = [MachineSpec(f"m{i}", cores=n) for i, n in enumerate(cores)]
    source = constant_rate(
        "S1", rate_per_s=8_000, duration_s=1.0, key_fn=lambda i: f"u{i % 997}"
    )
    _, report = run_counting(
        source,
        ClusterSpec(machines, NetworkSpec()),
        SimConfig(queue_capacity=200_000),
        30.0,
    )
    return latency_ms(report, ("p50", "p99", "maximum"))


def verify_straggler(rows: List[Row]) -> List[str]:
    cells = by_param(rows, "cluster")
    uniform, straggler = cells["uniform-4x4-core"], cells["one-1-core-straggler"]
    return failed(
        (straggler["p99_ms"] > 2 * uniform["p99_ms"], "a slow machine's keys kept up"),
    )


SPECS = (
    e_row(
        "e17_profile_slates",
        "E17 (SS5): 30M user-profile slates + 4M venue-profile slates from one "
        "stream: per-user and per-venue updaters, small slates, user population "
        ">> venue population.",
        profiles_cell,
        {"users": [5_000]},
        verify_profiles,
    ),
    e_row(
        "e17b_active_users_ttl",
        "E17b (SS4.2): 'keep track of only active Twitter users ... a working "
        "set which is typically much smaller than the set of all Twitter users "
        "who have ever tweeted'.",
        active_users_cell,
        {"ttl_days": [0, 1]},
        verify_active_users,
    ),
    e_row(
        "e18_spike",
        "E18 (SS1): applications 'must handle drastic spikes in the tweet "
        "volumes' (the earthquake example).",
        spike_cell,
        {"burst_rate": [60_000]},
        verify_spike,
    ),
    e_row(
        "e18b_straggler",
        "E18b (SS5): hash placement ignores machine capacity; a slow machine's "
        "keys suffer (motivation for the placement and load-redistribution "
        "explorations).",
        straggler_cell,
        {"cluster": ["uniform-4x4-core", "one-1-core-straggler"]},
        verify_straggler,
    ),
)
