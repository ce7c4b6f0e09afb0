#!/usr/bin/env python
"""Muppet 1.0 versus 2.0 on real threads (Section 4.5).

Runs the retailer application on both worker layouts of the real-thread
engine:

* ``LocalMuppet1`` — worker-per-function threads; every event (and every
  slate, both directions) crosses a genuine framed conductor pipe;
  private, fragmented slate caches.
* ``LocalMuppet``  — the 2.0 redesign: a thread pool, shared operator
  instances, one central cache, two-choice dispatch, zero in-machine IPC.

Everything else — queues, locks, wake-ups, flusher — is the same code, so
the gap is those differences alone. Both produce identical slates; the
run prints the throughput gap and the measured IPC traffic that 2.0
eliminated.

Run:  python examples/muppet1_vs_muppet2.py
"""

from __future__ import annotations

import time

from repro.apps import build_retailer_app
from repro.obs import format_table
from repro.muppet import (Local1Config, LocalConfig, LocalMuppet,
                          LocalMuppet1)
from repro.workloads import CheckinGenerator


def main() -> None:
    events, truth = CheckinGenerator(rate_per_s=5000,
                                     seed=27).take_with_truth(10_000)
    print(f"workload: {len(events)} checkins, "
          f"{sum(truth.values())} at recognized retailers\n")

    with LocalMuppet1(build_retailer_app(),
                      Local1Config(workers_per_function=2)) as engine1:
        start = time.perf_counter()
        engine1.ingest_many(events)
        engine1.drain()
        t1 = time.perf_counter() - start
        counts1 = {k: v["count"]
                   for k, v in engine1.read_slates_of("U1").items()}
        ipc = engine1.ipc_stats()

    with LocalMuppet(build_retailer_app(),
                     LocalConfig(num_threads=4)) as engine2:
        start = time.perf_counter()
        engine2.ingest_many(events)
        engine2.drain()
        t2 = time.perf_counter() - start
        counts2 = {k: v["count"]
                   for k, v in engine2.read_slates_of("U1").items()}

    assert counts1 == counts2 == truth, "engines disagree!"
    print(format_table(
        ["runtime", "wall time (s)", "checkins/s", "IPC frames",
         "IPC bytes"],
        [["Muppet 1.0 (conductor pipes)", f"{t1:.2f}",
          f"{len(events) / t1:,.0f}",
          ipc.frames_to_task + ipc.frames_to_conductor,
          f"{ipc.total_bytes:,}"],
         ["Muppet 2.0 (thread pool)", f"{t2:.2f}",
          f"{len(events) / t2:,.0f}", 0, "0"]]))
    print("\nidentical slates from both engines "
          f"(all {len(truth)} retailers exact); 2.0 is "
          f"{t1 / t2:.1f}x faster by eliminating "
          f"{ipc.total_bytes / 1e6:.1f} MB of in-machine IPC "
          "(Section 4.5's redesign, measured).")


if __name__ == "__main__":
    main()
