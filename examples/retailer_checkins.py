#!/usr/bin/env python
"""Example 1/4 (Figure 1(b)): count Foursquare checkins per retailer.

Runs the paper's flagship application — RetailerMapper (Figure 3) feeding
a per-retailer Counter updater (Figure 4) — over a synthetic checkin
stream, on the local thread runtime, and verifies the slate counts
against the generator's ground truth.

Run:  python examples/retailer_checkins.py
"""

from __future__ import annotations

from repro.apps import build_retailer_app
from repro.obs import format_table
from repro.muppet import LocalConfig, LocalMuppet
from repro.workloads import CheckinGenerator


def main() -> None:
    generator = CheckinGenerator(rate_per_s=2000, retail_fraction=0.45,
                                 seed=7)
    events, truth = generator.take_with_truth(10_000)
    print(f"generated {len(events)} checkins "
          f"({sum(truth.values())} at recognized retailers)")

    app = build_retailer_app()
    with LocalMuppet(app, LocalConfig(num_threads=4)) as runtime:
        runtime.ingest_many(events)
        runtime.drain()

        counts = {key: slate["count"]
                  for key, slate in runtime.read_slates_of("U1").items()}
        rows = [[retailer, counts.get(retailer, 0), truth[retailer],
                 "ok" if counts.get(retailer) == truth[retailer]
                 else "MISMATCH"]
                for retailer in sorted(truth)]
        print(format_table(
            ["retailer", "slate count", "ground truth", "check"], rows))

        summary = runtime.latency.summary()
        print(f"\nper-event latency: p50={summary.p50 * 1e3:.2f} ms  "
              f"p99={summary.p99 * 1e3:.2f} ms "
              "(paper bound: 2 s, Section 5)")
        assert counts == truth, "slate counts diverged from ground truth"
        print("all retailer counts exact.")


if __name__ == "__main__":
    main()
