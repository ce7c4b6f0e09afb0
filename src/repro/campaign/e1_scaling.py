"""E1 — throughput scaling with cluster size (Section 5).

Paper: "By early 2011 Muppet processed over 100 millions tweets and 1.5
million checkins per day. ... It ran over a cluster of tens of machines."
100 M tweets/day is about 1,157 events/s — modest per-second rates; the
paper's point is that a MapUpdate cluster scales far beyond it. E1a: a
handful of simulated machines absorbs the production rate with
sub-second latency. E1b: saturation capacity grows near-linearly with
machine count. (E1c, the batching ablation, is the ``e1_scaling`` cell
of ``perf_baseline``.)
"""

from __future__ import annotations

from typing import Any, List, Mapping

from repro.campaign.claims import (
    Metrics,
    Row,
    by_param,
    counted,
    e_row,
    failed,
    latency_ms,
    run_counting,
)
from repro.cluster import ClusterSpec
from repro.obs import PAPER_LATENCY_BOUND_S, PAPER_TWEETS_PER_SECOND
from repro.sim import SimConfig, constant_rate
from repro.workloads.zipf import zipf_key_fn


def cluster_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """``machines`` 4-core machines offered ``rate`` ev/s of Zipf-keyed
    events for ``duration`` seconds, then left to drain."""
    machines, rate = int(params["machines"]), float(params["rate"])
    duration = float(params["duration"])
    source = constant_rate(
        "S1",
        rate_per_s=rate,
        duration_s=duration,
        key_fn=zipf_key_fn("user", 5000, 1.05, seed=machines),
    )
    runtime, report = run_counting(
        source,
        ClusterSpec.uniform(machines, cores=4),
        SimConfig(queue_capacity=100_000),
        duration + 20.0,
    )
    return {
        "offered": int(rate * duration),
        "counted": counted(runtime),
        "lost": report.counters.lost_total(),
        **latency_ms(report),
        "queue_peak": report.queue_peak_depth,
    }


def verify_production_rate(rows: List[Row]) -> List[str]:
    cell = rows[0]["metrics"]
    return failed(
        (cell["counted"] == cell["offered"], "production rate not fully absorbed"),
        (cell["p99_ms"] < PAPER_LATENCY_BOUND_S * 1e3, "p99 outside the 2 s bound"),
    )


def verify_scaling(rows: List[Row]) -> List[str]:
    """More machines, lower p99 and shallower queues at a fixed rate."""
    cells = by_param(rows, "machines")
    small, large = cells[1], cells[16]
    return failed(
        (large["p99_ms"] < small["p99_ms"] / 5, "scaling should slash tail latency"),
        (large["queue_peak"] < small["queue_peak"], "16 machines queue as deep as 1"),
    )


SPECS = (
    e_row(
        "e1a_production_rate",
        "E1a (SS5): >100M tweets/day (~1,157 ev/s) on tens of machines, latency "
        "under 2 seconds.",
        cluster_cell,
        {"machines": [10]},
        verify_production_rate,
        fixed={"rate": PAPER_TWEETS_PER_SECOND, "duration": 2.0},
    ),
    # One 4-core machine sustains ~6.5k source ev/s in this model; 40k/s
    # are offered so that small clusters saturate and must queue.
    e_row(
        "e1b_scaling",
        "E1b (SS2 desiderata): the framework scales up on commodity hardware "
        "with computation and stream rate.",
        cluster_cell,
        {"machines": [1, 2, 4, 8, 16]},
        verify_scaling,
        fixed={"rate": 40_000.0, "duration": 0.5},
    ),
)
