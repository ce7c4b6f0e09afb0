"""E14–E16 — Section 5's "ongoing extensions", implemented and measured.

The paper closes with work in progress: locality-aware placement of
mappers/updaters (E14), changing the number of machines on the fly and
replaying lost events (E15), and the side-effect/logging guidance (E16).
All of them are built (see DESIGN.md §6); these campaigns are their
ablations.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Mapping

from repro.apps.counting import count_app
from repro.campaign.claims import (
    Metrics,
    Row,
    by_param,
    counted,
    e_row,
    failed,
    run_counting,
)
from repro.cluster import ClusterSpec
from repro.muppet.placement import (
    TrafficMatrix,
    evaluate_placement,
    greedy_placement,
    hash_placement,
)
from repro.muppet.sideeffects import PerWorkerLogger, SharedLogger
from repro.sim import SimConfig, SimRuntime, constant_rate
from repro.slates.manager import FlushPolicy
from repro.workloads.zipf import ZipfSampler


def placement_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """One ``placement`` of the updater slots on a realistic
    ingest-skewed traffic matrix: checkins land on two ingest machines;
    retailer popularity is Zipfian — the paper's exact scenario."""
    machines = [f"m{i}" for i in range(8)]
    matrix = TrafficMatrix()
    sampler = ZipfSampler(40, 1.2, seed=5)
    for i in range(20_000):
        producer = machines[i % 2]  # ingest nodes m0/m1
        matrix.record(producer, "U1", f"retailer{sampler.sample()}", 500)
    if params["placement"] == "hash":
        placement = hash_placement(matrix, machines)
    else:
        placement = greedy_placement(matrix, machines, max_load_fraction=0.4)
    cost = evaluate_placement(matrix, placement)
    return {
        "cross_machine_bytes": cost.cross_machine_bytes,
        "locality": round(cost.locality, 4),
        "max_machine_share": round(cost.max_machine_share, 4),
    }


def verify_placement(rows: List[Row]) -> List[str]:
    cells = by_param(rows, "placement")
    hashed, greedy = cells["hash"], cells["greedy-cap-40pct"]
    return failed(
        (
            greedy["cross_machine_bytes"] < 0.7 * hashed["cross_machine_bytes"],
            "placement near the producers cut network traffic < 30%",
        ),
        (greedy["max_machine_share"] <= 0.45, "the load cap did not hold"),
    )


def elastic_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """2,000 ev/s for 2 s. ``join``: a machine is added at t = 1 s
    (rebalance barrier). ``crash`` / ``crash-replay``: m001 dies at
    t = 1 s without and with a 0.5 s replay journal, slates
    write-through so that only event loss matters."""
    scenario = str(params["scenario"])
    source = constant_rate(
        "S1", rate_per_s=2000, duration_s=2.0, key_fn=lambda i: f"k{i % 64}"
    )
    if scenario == "join":
        runtime = SimRuntime(
            count_app("e15"), ClusterSpec.uniform(2, cores=4), SimConfig(), [source]
        )
        runtime.schedule_add_machine(1.0, "m_new", cores=4)
        report = runtime.run(10.0)
        workers = runtime.machines["m_new"].workers
        joined = sum(worker.queue.stats.accepted for worker in workers)
    else:
        replay = (
            {"delivery_semantics": "at-least-once", "replay_horizon_s": 0.5}
            if scenario == "crash-replay"
            else {}
        )
        config = SimConfig(flush_policy=FlushPolicy.write_through(), **replay)
        cluster = ClusterSpec.uniform(4, cores=4)
        failures = [(1.0, "m001")]
        runtime, report = run_counting(source, cluster, config, 10.0, failures)
        joined = 0
    return {
        "counted": counted(runtime),
        "lost": report.counters.lost_total(),
        "accepted_on_new_machine": joined,
        "replayed": runtime.counters_replayed,
    }


def verify_elastic(rows: List[Row]) -> List[str]:
    cells = by_param(rows, "scenario")
    join, replay = cells["join"], cells["crash-replay"]
    return failed(
        (join["counted"] == 4000 and join["lost"] == 0, "the join lost events"),
        (join["accepted_on_new_machine"] > 0, "the new machine took no traffic"),
        (replay["counted"] >= 4000, "replay should recover the window at-least-once"),
        (replay["counted"] >= cells["crash"]["counted"], "replay counted fewer"),
    )


def log_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """'Asking mappers and updaters to write to a common log can
    introduce lock contention for the common logger, thereby
    dramatically slowing down the workers.'"""
    threads_n, lines_per_thread, write_cost_s = 8, 400, 100e-6
    shared = SharedLogger(write_cost_s=write_cost_s)
    private = PerWorkerLogger(threads_n, write_cost_s=write_cost_s)
    log: Callable[[int, str], None] = private.log
    lines = private.lines
    if params["logger"] == "shared":
        log, lines = (lambda index, line: shared.log(line)), shared.lines
    barrier = threading.Barrier(threads_n)

    def worker(index: int) -> None:
        barrier.wait()
        for i in range(lines_per_thread):
            log(index, f"worker {index} line {i}")

    workers = [threading.Thread(target=worker, args=(i,)) for i in range(threads_n)]
    start = time.perf_counter()
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    wall = time.perf_counter() - start
    return {
        "lines_offered": threads_n * lines_per_thread,
        "lines_logged": len(lines()),
        "wall_ms": round(wall * 1e3, 1),
        # Only the shared logger has a lock to wait on; left idle, it reads 0.
        "lock_wait_ms": round(shared.stats.lock_wait_s * 1e3, 1),
    }


def verify_log(rows: List[Row]) -> List[str]:
    cells = by_param(rows, "logger")
    shared, private = cells["shared"], cells["per-worker"]
    return failed(
        (shared["lines_logged"] == shared["lines_offered"], "shared log lost lines"),
        (private["lines_logged"] == private["lines_offered"], "worker logs lost lines"),
        (private["wall_ms"] < shared["wall_ms"], "one lock should slow the workers"),
    )


SPECS = (
    e_row(
        "e14_placement",
        "E14 (SS5): placing updaters near their producers reduces network "
        "traffic; but an uncapped local placement would melt the ingest machine "
        "(the paper's caveats).",
        placement_cell,
        {"placement": ["hash", "greedy-cap-40pct"]},
        verify_placement,
    ),
    e_row(
        "e15_elastic_replay",
        "E15 (SS5, SS4.3 future work): machines can join on the fly (dirty "
        "slates flushed before the ring change, so no dual-owner slates); a "
        "replay journal recovers the failure window at-least-once.",
        elastic_cell,
        {"scenario": ["join", "crash", "crash-replay"]},
        verify_elastic,
    ),
    e_row(
        "e16_log_contention",
        "E16 (SS5): a common log serializes all workers on one lock; per-worker "
        "logs (merged on read) do not. Times are this machine's.",
        log_cell,
        {"logger": ["shared", "per-worker"]},
        verify_log,
        volatile_metrics=("wall_ms", "lock_wait_ms"),
    ),
)
