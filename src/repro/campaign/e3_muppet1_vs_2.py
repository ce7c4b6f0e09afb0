"""E3 — Muppet 1.0 versus Muppet 2.0 (Section 4.5).

The paper lists four 1.0 limitations that 2.0 removes: (1) duplicate
per-worker copies of the operator code waste memory; (2) conductor <->
task-processor IPC wastes CPU; (3) fragmented per-worker slate caches
need ~25% more memory for the same working set (the 125-vs-100 example);
(4) a fixed worker-per-function layout underuses multicore machines.
These campaigns quantify each on identical workloads.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Mapping

from repro.apps.counting import count_app, count_events
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
from repro.cluster.hashring import HashRing
from repro.core.slate import Slate, SlateKey
from repro.muppet.local import LocalConfig, LocalMuppet, ThreadedEngine
from repro.muppet.local1 import Local1Config, LocalMuppet1
from repro.sim import ENGINE_MUPPET1, ENGINE_MUPPET2, SimConfig, constant_rate
from repro.slates.cache import SlateCache, fragmented_capacity
from repro.workloads.zipf import ZipfSampler, zipf_key_fn


def engine_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """20k ev/s of Zipf-keyed events on 2 machines under one ``engine``,
    two workers per function per machine."""
    config = SimConfig(
        engine=str(params["engine"]),
        queue_capacity=200_000,
        workers_per_function_per_machine=2,
    )
    source = constant_rate(
        "S1",
        rate_per_s=20_000.0,
        duration_s=0.5,
        key_fn=zipf_key_fn("u", 2000, 1.0, seed=7),
    )
    _, report = run_counting(source, ClusterSpec.uniform(2, cores=4), config, 30.0)
    return {
        **latency_ms(report),
        "memory_mb": round(report.memory_mb_per_machine, 3),  # code + cache
        "max_workers_per_slate": report.max_workers_per_slate,
        "queue_peak": report.queue_peak_depth,
    }


def verify_engines(rows: List[Row]) -> List[str]:
    cells = by_param(rows, "engine")
    one, two = cells[ENGINE_MUPPET1], cells[ENGINE_MUPPET2]
    return failed(
        # 1.0 loads one code copy per worker (2 functions x 2 workers = 4
        # copies) versus one shared copy in 2.0.
        (one["memory_mb"] > 3 * two["memory_mb"], "1.0's code copies cost < 3x memory"),
        (one["p99_ms"] > two["p99_ms"], "IPC should make 1.0 slower at the same load"),
        (one["max_workers_per_slate"] == 1, "1.0 has exactly one owner per slate"),
        (two["max_workers_per_slate"] <= 2, "2.0 bounds contention at two workers"),
    )


def fragmentation_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """The paper's worked example: the hit rate of one ``layout`` of
    slate-cache slots over a Zipf trace on a 100-slate working set that
    a hash ring spreads over 5 workers."""
    working_set, workers, accesses = 100, 5, 20_000
    sampler = ZipfSampler(working_set, 0.8, seed=3)
    keys = [f"k{sampler.sample()}" for _ in range(accesses)]
    ring: HashRing[int] = HashRing(range(workers))
    share = [0] * workers
    for key in set(keys):
        share[ring.lookup(key)] += 1
    max_share = max(share) / working_set

    def hit_rate(caches: List[SlateCache], owner: Callable[[str], int]) -> float:
        hits = 0
        for key in keys:
            cache, slate_key = caches[owner(key)], SlateKey("U1", key)
            if cache.get(slate_key) is not None:
                hits += 1
            else:
                cache.put(Slate(slate_key))
        return hits / len(keys)

    layout = str(params["layout"])
    if layout == "central":
        per_cache, count = working_set, 1
        rate = hit_rate([SlateCache(per_cache)], lambda key: 0)
    else:
        per_cache, count = working_set // workers, workers
        if layout == "fragmented-sized":
            per_cache = fragmented_capacity(working_set, workers, max_share)
        rate = hit_rate([SlateCache(per_cache) for _ in range(workers)], ring.lookup)
    return {
        "slots_per_cache": per_cache,
        "total_slots": per_cache * count,
        "hit_rate": round(rate, 4),
        "worst_worker_share": max_share,
    }


def verify_fragmentation(rows: List[Row]) -> List[str]:
    """The central cache holds the whole working set; the evenly split
    caches thrash; matching its hit rate needs > 100 fragmented slots."""
    cells = by_param(rows, "layout")
    central, even = cells["central"], cells["fragmented-even"]
    sized = cells["fragmented-sized"]
    return failed(
        (central["hit_rate"] > even["hit_rate"], "an even split hits as often"),
        (sized["total_slots"] > 100, "sizing to the worst worker needs > 100 slots"),
        (sized["hit_rate"] >= central["hit_rate"] - 0.01, "sized caches hit less"),
    )


def wallclock_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """E3c: the same comparison on *real threads* — LocalMuppet1 pays
    genuine per-event frame serialization through its conductor pipes;
    LocalMuppet (2.0) shares one in-process instance and cache. Both are
    layouts of one engine (same queues, locks, flusher), so the gap is
    the four Section 4.5 differences alone."""
    events = count_events(3000, keys=32)
    app = count_app("e3c-count")
    runtime: ThreadedEngine
    if params["layout"] == "LocalMuppet1":
        runtime = LocalMuppet1(app, Local1Config(workers_per_function=2))
    else:
        runtime = LocalMuppet(app, LocalConfig(num_threads=4))
    ipc_bytes = ipc_frames = 0
    with runtime:
        start = time.perf_counter()
        runtime.ingest_many(events)
        runtime.drain()
        wall = time.perf_counter() - start
        if isinstance(runtime, LocalMuppet1):
            ipc = runtime.ipc_stats()
            ipc_bytes = ipc.total_bytes
            ipc_frames = ipc.frames_to_task + ipc.frames_to_conductor
    return {
        "events": len(events),
        "ipc_bytes": ipc_bytes,
        "ipc_frames": ipc_frames,
        "wall_s": round(wall, 4),
        "events_per_s": round(len(events) / wall),
    }


def verify_wallclock(rows: List[Row]) -> List[str]:
    cells = by_param(rows, "layout")
    return failed(
        (cells["LocalMuppet1"]["ipc_bytes"] > 0, "1.0 moved nothing through its pipes"),
        (cells["LocalMuppet"]["ipc_bytes"] == 0, "2.0 has no pipes to move bytes in"),
    )


SPECS = (
    e_row(
        "e3a_muppet1_vs_2",
        "E3a (SS4.5): Muppet 2.0 eliminates duplicate code copies, in-machine "
        "IPC, fragmented caches, and fixed worker layouts.",
        engine_cell,
        {"engine": [ENGINE_MUPPET1, ENGINE_MUPPET2]},
        verify_engines,
    ),
    e_row(
        "e3b_cache_fragmentation",
        "E3b (SS4.5): five per-worker caches need e.g. 25 slates each (125 "
        "total) to hold a 100-slate working set one central cache holds in "
        "100 slots.",
        fragmentation_cell,
        {"layout": ["central", "fragmented-even", "fragmented-sized"]},
        verify_fragmentation,
    ),
    e_row(
        "e3c_wallclock_1_vs_2",
        "E3c (SS4.5): passing data between processes can be computationally "
        "wasteful; Muppet 2.0 eliminates it within each machine. Wall time is "
        "this machine's; the pipe traffic is exact.",
        wallclock_cell,
        {"layout": ["LocalMuppet1", "LocalMuppet"]},
        verify_wallclock,
        volatile_metrics=("wall_s", "events_per_s"),
    ),
)
