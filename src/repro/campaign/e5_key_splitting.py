"""E5 — key splitting for associative updates (Example 6, Section 5).

Paper: when "a lot of people are checking into Best Buy", the single
Best Buy updater becomes a hotspot; because counting is associative and
commutative, the map function can split the key into "Best Buy1" /
"Best Buy2" sub-keys counted by separate updaters whose partial counts a
merge updater sums. The split factor is swept on a hot-retailer checkin
stream: totals must stay exact while the hot key's service spreads and
tail latency falls.
"""

from __future__ import annotations

from typing import Any, List, Mapping

from repro.apps import build_retailer_app, build_split_app
from repro.campaign.claims import Metrics, Row, by_param, e_row, failed, latency_ms
from repro.cluster import ClusterSpec
from repro.sim import ENGINE_MUPPET1, SimConfig, SimRuntime, from_trace
from repro.workloads import CheckinGenerator


def split_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """Muppet 1.0 (single-owner workers): where splitting matters most.
    ``splits`` = 0 is the unsplit retailer app."""
    generator = CheckinGenerator(
        rate_per_s=6000,
        seed=301,
        retail_fraction=0.9,
        hot_retailer="Best Buy",
        hot_share=0.9,
    )
    events, truth = generator.take_with_truth(3000)
    splits = int(params["splits"])
    if splits == 0:
        app, merged_updater = build_retailer_app(), "U1"
    else:
        app = build_split_app(hot_keys=["Best Buy"], num_splits=splits, emit_every=20)
        merged_updater = "U2"
    config = SimConfig(
        engine=ENGINE_MUPPET1, queue_capacity=100_000, latency_sinks={"U1"}
    )
    runtime = SimRuntime(
        app, ClusterSpec.uniform(4, cores=2), config, [from_trace("S1", events)]
    )
    report = runtime.run(60.0)
    merged = {k: v["count"] for k, v in runtime.slates_of(merged_updater).items()}
    return {
        **latency_ms(report, ("p99",)),  # of U1, the counter (the latency sink)
        "queue_peak": report.queue_peak_depth,
        "best_buy_total": merged.get("Best Buy", 0),
        "best_buy_truth": truth["Best Buy"],
        "totals_exact": all(merged.get(k) == v for k, v in truth.items()),
    }


def verify_split(rows: List[Row]) -> List[str]:
    cells = by_param(rows, "splits")
    unsplit, widest = cells[0], cells[8]
    return failed(
        (widest["p99_ms"] < unsplit["p99_ms"], "splitting did not cut the hot tail"),
        (widest["queue_peak"] < unsplit["queue_peak"], "splitting queued as deep"),
        (all(cell["totals_exact"] for cell in cells.values()), "a merged total is off"),
    )


SPECS = (
    e_row(
        "e5_key_splitting",
        "E5 (Example 6): splitting the hot 'Best Buy' key across sub-key "
        "updaters relieves the hotspot; merged totals are unchanged (counting "
        "is associative and commutative).",
        split_cell,
        {"splits": [0, 2, 4, 8]},
        verify_split,
    ),
)
