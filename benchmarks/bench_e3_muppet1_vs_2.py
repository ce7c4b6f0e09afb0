"""E3 — Muppet 1.0 versus Muppet 2.0 (Section 4.5).

The paper lists four 1.0 limitations that 2.0 removes: (1) duplicate
per-worker copies of the operator code waste memory; (2) conductor↔task-
processor IPC wastes CPU; (3) fragmented per-worker slate caches need
~25% more memory for the same working set (the 125-vs-100 example);
(4) a fixed worker-per-function layout underuses multicore machines.
This bench quantifies each on identical workloads.
"""

from __future__ import annotations


from repro.cluster import ClusterSpec
from repro.cluster.hashring import HashRing
from repro.core.slate import SlateKey
from repro.sim import (ENGINE_MUPPET1, ENGINE_MUPPET2, SimConfig,
                       SimRuntime, constant_rate)
from repro.slates.cache import SlateCache, fragmented_capacity
from repro.workloads.zipf import ZipfSampler, zipf_key_fn
from tests.conftest import build_count_app


def run_engine(engine: str, rate: float = 20_000.0,
               duration: float = 0.5, machines: int = 2):
    config = SimConfig(engine=engine, queue_capacity=200_000,
                       workers_per_function_per_machine=2)
    source = constant_rate("S1", rate_per_s=rate, duration_s=duration,
                           key_fn=zipf_key_fn("u", 2000, 1.0, seed=7))
    runtime = SimRuntime(build_count_app(),
                         ClusterSpec.uniform(machines, cores=4), config,
                         [source])
    return runtime, runtime.run(30.0)


def test_e3_throughput_and_memory(benchmark, experiment):
    def run():
        results = {}
        for engine in (ENGINE_MUPPET1, ENGINE_MUPPET2):
            _, sim_report = run_engine(engine)
            results[engine] = sim_report
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    r1, r2 = results[ENGINE_MUPPET1], results[ENGINE_MUPPET2]
    report = experiment("E3a-muppet1-vs-2")
    report.claim("Muppet 2.0 eliminates duplicate code copies, in-machine "
                 "IPC, fragmented caches, and fixed worker layouts")
    report.table(
        ["metric", "Muppet 1.0", "Muppet 2.0"],
        [["p50 latency (ms)", f"{r1.latency.p50 * 1e3:.2f}",
          f"{r2.latency.p50 * 1e3:.2f}"],
         ["p99 latency (ms)", f"{r1.latency.p99 * 1e3:.2f}",
          f"{r2.latency.p99 * 1e3:.2f}"],
         ["memory MB/machine (code+cache)",
          f"{r1.memory_mb_per_machine:.0f}",
          f"{r2.memory_mb_per_machine:.0f}"],
         ["max workers per slate", r1.max_workers_per_slate,
          r2.max_workers_per_slate],
         ["peak queue depth", r1.queue_peak_depth, r2.queue_peak_depth]])
    # 1.0 loads one code copy per worker (2 functions x 2 workers = 4
    # copies) versus one shared copy in 2.0.
    assert r1.memory_mb_per_machine > 3 * r2.memory_mb_per_machine
    # The IPC overhead makes 1.0 slower at the same offered load.
    assert r1.latency.p99 > r2.latency.p99
    # 2.0 allows bounded contention (<=2); 1.0 has exactly one owner.
    assert r1.max_workers_per_slate == 1
    assert r2.max_workers_per_slate <= 2
    report.outcome(
        f"2.0 wins: memory {r1.memory_mb_per_machine:.0f} -> "
        f"{r2.memory_mb_per_machine:.0f} MB/machine, p99 "
        f"{r1.latency.p99 * 1e3:.1f} -> {r2.latency.p99 * 1e3:.1f} ms")


def test_e3_wallclock_real_threads(benchmark, experiment):
    """E3c: the same comparison on *real threads* — LocalMuppet1 pays
    genuine per-event frame serialization through its conductor pipes;
    LocalMuppet (2.0) shares one in-process instance and cache. Both are
    layouts of one engine (same queues, locks, flusher), so the gap is
    the four Section 4.5 differences alone."""
    import time

    from repro.muppet.local import LocalConfig, LocalMuppet
    from repro.muppet.local1 import Local1Config, LocalMuppet1
    from tests.conftest import make_events

    events = make_events(3000, keys=32)

    def run():
        with LocalMuppet1(build_count_app(),
                          Local1Config(workers_per_function=2)) as rt1:
            start = time.perf_counter()
            rt1.ingest_many(list(events))
            rt1.drain()
            t1 = time.perf_counter() - start
            ipc = rt1.ipc_stats()
        with LocalMuppet(build_count_app(),
                         LocalConfig(num_threads=4)) as rt2:
            start = time.perf_counter()
            rt2.ingest_many(list(events))
            rt2.drain()
            t2 = time.perf_counter() - start
        return t1, t2, ipc

    t1, t2, ipc = benchmark.pedantic(run, rounds=1, iterations=1)
    n = 3000
    report = experiment("E3c-wallclock-1-vs-2")
    report.claim("passing data between processes can be computationally "
                 "wasteful; Muppet 2.0 eliminates it within each machine")
    report.table(
        ["runtime", "wall time (s)", "events/s", "IPC bytes", "IPC frames"],
        [["LocalMuppet1 (conductor pipes)", f"{t1:.3f}",
          f"{n / t1:,.0f}", ipc.total_bytes,
          ipc.frames_to_task + ipc.frames_to_conductor],
         ["LocalMuppet (2.0 threads)", f"{t2:.3f}", f"{n / t2:,.0f}",
          0, 0]])
    assert ipc.total_bytes > 0
    report.outcome(
        f"1.0 moved {ipc.total_bytes / 1e6:.2f} MB through conductor "
        f"pipes for {n} events ({n / t1:,.0f} ev/s) vs zero IPC on 2.0 "
        f"({n / t2:,.0f} ev/s)")


def test_e3_cache_fragmentation_125_vs_100(benchmark, experiment):
    """The paper's worked example: a 100-slate working set over 5 workers
    needs ~125 fragmented cache slots for the hit rate one central cache
    of 100 achieves."""
    working_set = 100
    workers = 5
    accesses = 20_000

    def run():
        sampler = ZipfSampler(working_set, 0.8, seed=3)
        keys = [f"k{sampler.sample()}" for _ in range(accesses)]
        ring: HashRing[int] = HashRing(range(workers))
        share = {w: set() for w in range(workers)}
        for key in set(keys):
            share[ring.lookup(key)].add(key)
        max_share = max(len(s) for s in share.values()) / working_set

        def hit_rate_fragmented(per_worker_capacity: int) -> float:
            caches = [SlateCache(per_worker_capacity)
                      for _ in range(workers)]
            hits = 0
            for key in keys:
                cache = caches[ring.lookup(key)]
                slate_key = SlateKey("U1", key)
                if cache.get(slate_key) is not None:
                    hits += 1
                else:
                    from repro.core.slate import Slate

                    cache.put(Slate(slate_key))
            return hits / len(keys)

        def hit_rate_central(capacity: int) -> float:
            cache = SlateCache(capacity)
            hits = 0
            for key in keys:
                slate_key = SlateKey("U1", key)
                if cache.get(slate_key) is not None:
                    hits += 1
                else:
                    from repro.core.slate import Slate

                    cache.put(Slate(slate_key))
            return hits / len(keys)

        even = working_set // workers                     # 20 per worker
        needed = fragmented_capacity(working_set, workers, max_share)
        return {
            "max_share": max_share,
            "needed_per_worker": needed,
            "central_100": hit_rate_central(100),
            "frag_even_total_100": hit_rate_fragmented(even),
            "frag_needed_total": hit_rate_fragmented(needed),
            "frag_needed_slots": needed * workers,
        }

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    report = experiment("E3b-cache-fragmentation")
    report.claim("five per-worker caches need e.g. 25 slates each (125 "
                 "total) to hold a 100-slate working set one central "
                 "cache holds in 100 slots")
    report.table(
        ["configuration", "total slots", "hit rate"],
        [["central cache (Muppet 2.0)", 100,
          f"{stats['central_100']:.3f}"],
         ["5 x 20 fragmented (same 100 slots)", 100,
          f"{stats['frag_even_total_100']:.3f}"],
         [f"5 x {stats['needed_per_worker']} fragmented (sized to "
          "worst worker)", stats["frag_needed_slots"],
          f"{stats['frag_needed_total']:.3f}"]])
    # The central cache holds the whole working set; the evenly split
    # caches thrash; matching its hit rate needs > 100 fragmented slots.
    assert stats["central_100"] > stats["frag_even_total_100"]
    assert stats["frag_needed_slots"] > 100
    assert stats["frag_needed_total"] >= stats["central_100"] - 0.01
    report.outcome(
        f"worst worker owns {stats['max_share'] * 100:.0f}% of the hot "
        f"set -> {stats['frag_needed_slots']} fragmented slots needed to "
        "match a 100-slot central cache (paper's 125-vs-100 effect)")
