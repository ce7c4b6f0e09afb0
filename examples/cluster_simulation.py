#!/usr/bin/env python
"""Simulate a Muppet cluster: scaling, a machine failure, and recovery.

Reproduces the Section 5 deployment story in miniature: the retailer
application running at the paper's production rate on a simulated
cluster, first sweeping the machine count, then killing a machine
mid-stream and watching detection/rerouting (Section 4.3).

Run:  python examples/cluster_simulation.py
"""

from __future__ import annotations

from repro.apps import build_retailer_app
from repro.cluster import ClusterSpec
from repro.obs import PAPER_TWEETS_PER_SECOND, format_table
from repro.sim import SimConfig, SimRuntime, from_trace
from repro.workloads import CheckinGenerator


def sweep_machines() -> None:
    print("== throughput/latency vs cluster size "
          f"(offered: {PAPER_TWEETS_PER_SECOND:.0f} ev/s, the paper's "
          "100M tweets/day) ==")
    rows = []
    for machines in (1, 2, 4, 8, 16):
        generator = CheckinGenerator(rate_per_s=PAPER_TWEETS_PER_SECOND,
                                     seed=81)
        events = list(generator.events(duration_s=2.0))
        runtime = SimRuntime(build_retailer_app(),
                             ClusterSpec.uniform(machines, cores=4),
                             SimConfig(), [from_trace("S1", events)])
        report = runtime.run(10.0)
        rows.append([machines,
                     f"{report.events_per_second():,.0f}",
                     f"{report.latency.p50 * 1e3:.2f}",
                     f"{report.latency.p99 * 1e3:.2f}",
                     report.counters.lost_total()])
    print(format_table(
        ["machines", "deliveries/s", "p50 (ms)", "p99 (ms)", "lost"],
        rows))


def failure_demo() -> None:
    print("\n== machine failure at t=1.0s on a 4-machine cluster ==")
    generator = CheckinGenerator(rate_per_s=2000, seed=82)
    events, truth = generator.take_with_truth(4000)
    runtime = SimRuntime(build_retailer_app(),
                         ClusterSpec.uniform(4, cores=4), SimConfig(),
                         [from_trace("S1", events)],
                         failures=[(1.0, "m002")])
    report = runtime.run(10.0)
    print("failure detected in "
          f"{report.failure_detection_s * 1e3:.1f} ms "
          "(worker noticed on send; master broadcast rerouted the ring)")
    print(f"events lost: {report.counters.lost_failure} "
          "(queued on / in flight to the dead machine — logged as lost)")
    counted = sum((runtime.slate('U1', r) or {}).get('count', 0)
                  for r in truth)
    print(f"counted {counted} of {sum(truth.values())} retailer "
          "checkins; the shortfall is the dead machine's unflushed "
          "slate state — 'whatever changes ... not yet flushed to the "
          "key-value store are lost' (Section 4.3)")
    print("the stream never stopped "
          f"(p99 after failure: {report.latency.p99 * 1e3:.1f} ms); a "
          "shorter flush interval bounds the loss (bench E6b)")


def main() -> None:
    sweep_machines()
    failure_demo()


if __name__ == "__main__":
    main()
