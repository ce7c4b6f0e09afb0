#!/usr/bin/env python
"""Example 6: relieve a hotspot updater by splitting its key.

"Suppose, hypothetically, that a lot of people are checking into Best
Buy" — the single Best Buy updater drowns. Counting is associative and
commutative, so the mapper splits the key into sub-keys ("Best Buy#0",
"Best Buy#1", ...), partial counters run in parallel, and a merge
updater reassembles the exact total.

Run:  python examples/hotspot_splitting.py
"""

from __future__ import annotations

from repro.apps import build_retailer_app, build_split_app
from repro.cluster import ClusterSpec
from repro.obs import format_table
from repro.sim import ENGINE_MUPPET1, SimConfig, SimRuntime, from_trace
from repro.workloads import CheckinGenerator


def run(events, num_splits):
    if num_splits == 0:
        app = build_retailer_app()
        merged = "U1"
    else:
        app = build_split_app(hot_keys=["Best Buy"],
                              num_splits=num_splits, emit_every=20)
        merged = "U2"
    runtime = SimRuntime(
        app, ClusterSpec.uniform(4, cores=2),
        SimConfig(engine=ENGINE_MUPPET1, queue_capacity=100_000,
                  latency_sinks={"U1"}),
        [from_trace("S1", list(events))])
    report = runtime.run(60.0)
    best_buy = (runtime.slates_of(merged).get("Best Buy") or {})
    return report, best_buy.get("count", 0)


def main() -> None:
    generator = CheckinGenerator(rate_per_s=6000, seed=91,
                                 retail_fraction=0.9,
                                 hot_retailer="Best Buy", hot_share=0.9)
    events, truth = generator.take_with_truth(3000)
    print(f"{len(events)} checkins; {truth['Best Buy']} hit Best Buy "
          f"({100 * truth['Best Buy'] / len(events):.0f}% — a hotspot)")

    rows = []
    for num_splits in (0, 2, 4, 8):
        report, best_buy_total = run(events, num_splits)
        label = "unsplit" if num_splits == 0 else f"{num_splits}-way"
        rows.append([label,
                     f"{report.latency.p99 * 1e3:.1f}",
                     report.queue_peak_depth,
                     best_buy_total,
                     "exact" if best_buy_total == truth["Best Buy"]
                     else "WRONG"])
    print(format_table(
        ["split", "counter p99 (ms)", "peak queue depth",
         "Best Buy total", "vs truth"], rows))
    print("\nsplitting spreads the hot key across updaters; the merge "
          "updater reassembles the exact total (associative + "
          "commutative, Example 6).")


if __name__ == "__main__":
    main()
