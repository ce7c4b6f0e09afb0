"""E12 — MapUpdate versus the related-work baselines (Sections 2, 6).

Two comparisons the paper argues qualitatively, quantified here:

* **latency** — MapUpdate streams per event ("millisecond to second
  latencies", SS6) versus micro-batch incremental MapReduce (bounded
  below by its batch interval) versus periodic snapshot MapReduce
  (staleness grows with accumulated history), all computing identical
  answers on the identical workload;
* **state on failure** — Muppet's slates are persisted and refetchable;
  a Storm/S4-style app-managed-state system loses its state on restart.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterator, List, Mapping, Tuple

from repro.apps.retailer_count import build_retailer_app, match_retailer
from repro.baselines.mapreduce import periodic_job_staleness
from repro.baselines.mapreduce_online import MicroBatchEngine, counting_reduce
from repro.baselines.storm_like import StormLikeTopology
from repro.campaign.claims import Metrics, Row, by_param, e_row, failed, latency_of
from repro.cluster import ClusterSpec
from repro.core import Event
from repro.sim import SimConfig, SimRuntime, from_trace
from repro.slates.manager import FlushPolicy
from repro.workloads import CheckinGenerator

RATE, DURATION = 100, 60.0
MICROBATCH_INTERVALS = {"microbatch-1s": 1.0, "microbatch-10s": 10.0}


def _retailer_map(key: str, value: str) -> Iterator[Tuple[str, int]]:
    retailer = match_retailer(json.loads(value)["venue"]["name"])
    if retailer:
        yield (retailer, 1)


def latency_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """A minute of checkins at 100 ev/s through one ``system``."""
    system = str(params["system"])
    generator = CheckinGenerator(rate_per_s=RATE, seed=401)
    events, truth = generator.take_with_truth(int(RATE * DURATION))
    if system == "snapshot-mr":
        # 10-minute cadence over a day of accumulated history at this rate.
        staleness = periodic_job_staleness(
            arrival_rate_per_s=RATE, period_s=600, history_records=RATE * 86_400
        )
        return {"p50_s": round(staleness, 4), "p99_s": round(staleness, 4)}
    if system == "muppet":
        runtime = SimRuntime(
            build_retailer_app(),
            ClusterSpec.uniform(4, cores=4),
            SimConfig(),
            [from_trace("S1", events)],
        )
        summary = latency_of(runtime.run(DURATION + 10.0))
        counts = {k: v["count"] for k, v in runtime.slates_of("U1").items()}
    else:
        engine = MicroBatchEngine(
            _retailer_map,
            counting_reduce,
            batch_interval_s=MICROBATCH_INTERVALS[system],
        )
        batched = engine.run(events)
        summary, counts = batched.latency.summary(), batched.state
    return {
        "p50_s": round(summary.p50, 4),
        "p99_s": round(summary.p99, 4),
        "counts_exact": counts == truth,
    }


def verify_latency(rows: List[Row]) -> List[str]:
    cells = by_param(rows, "system")
    return failed(
        (cells["muppet"]["p99_s"] < 0.1, "MapUpdate p99 should be milliseconds"),
        # A micro-batch waits at least half its interval at the median.
        (cells["microbatch-1s"]["p50_s"] > 0.4, "1 s batches answered too soon"),
        (cells["microbatch-10s"]["p50_s"] > 4.0, "10 s batches answered too soon"),
        (cells["snapshot-mr"]["p50_s"] > 300.0, "snapshots should be minutes stale"),
        (cells["muppet"]["counts_exact"], "MapUpdate counts differ from the truth"),
        (cells["microbatch-10s"]["counts_exact"], "micro-batch counts differ"),
    )


def _count_bolt(event: Event, state: Dict[str, int], emit: Callable[..., None]) -> None:
    retailer = match_retailer(json.loads(event.value)["venue"]["name"])
    if retailer:
        state[retailer] = state.get(retailer, 0) + 1


def state_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    generator = CheckinGenerator(rate_per_s=200, seed=402)
    events, truth = generator.take_with_truth(2000)
    if params["system"] == "storm-like":
        # App-managed state; two of the four bolt instances crash.
        topology = StormLikeTopology("S1")
        topology.add_bolt("count", _count_bolt, subscribes=["S1"], parallelism=4)
        topology.process(events)
        instances = topology.instances("count")
        before = sum(sum(instance.state.values()) for instance in instances)
        topology.crash_instance("count", 0)
        topology.crash_instance("count", 1)
        after = sum(sum(instance.state.values()) for instance in instances)
    else:
        # A machine crashes; slates were flushed write-through, so the
        # failover worker refetches them from the kv-store.
        runtime = SimRuntime(
            build_retailer_app(),
            ClusterSpec.uniform(3, cores=4),
            SimConfig(flush_policy=FlushPolicy.write_through()),
            [from_trace("S1", events)],
            failures=[(5.0, "m001")],
        )
        runtime.run(30.0)
        before = sum(truth.values())
        slates = [runtime.slate("U1", retailer) for retailer in truth]
        after = sum(slate["count"] for slate in slates if slate)
    return {
        "before_crash": before,  # events counted
        "after_crash": after,
        "state_retained_pct": round(100 * after / max(1, before)),
    }


def verify_state(rows: List[Row]) -> List[str]:
    cells = by_param(rows, "system")
    storm, muppet = cells["storm-like"], cells["muppet"]
    return failed(
        (storm["after_crash"] < storm["before_crash"], "app-managed state survived"),
        (muppet["after_crash"] >= 0.98 * muppet["before_crash"], "slates were lost"),
    )


SPECS = (
    e_row(
        "e12a_latency_vs_baselines",
        "E12a (SS2, SS6): slates let an updater process each event immediately "
        "(ms-s latency) versus batch-bound alternatives.",
        latency_cell,
        {"system": ["muppet", *MICROBATCH_INTERVALS, "snapshot-mr"]},
        verify_latency,
    ),
    e_row(
        "e12b_state_on_failure",
        "E12b (SS6): S4/Storm leave state management to the application (lost "
        "on restart); Muppet's slates persist in the key-value store and "
        "survive worker failure.",
        state_cell,
        {"system": ["storm-like", "muppet"]},
        verify_state,
    ),
)
