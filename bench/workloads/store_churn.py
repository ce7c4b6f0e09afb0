"""``store_churn``: the slate manager over the durable key-value store,
with a working set ten times the cache.

A single-threaded driver runs seeded operations against ``SlateManager(
ReplicatedKVStore(3 nodes, replication 2, on disk), cache 5 000 slates,
flush every 0.05 s, QUORUM)``: keys are Zipf(0.9) over 50 000, half the
operations are read-only ``get``, half are ``get`` + mutate +
``note_update``, and ``flush_due()`` follows every operation. Slates are
about 1 KB of profile-shaped JSON.

The clock is the driver's (``now = op_index * 1e-4``), so the program
cannot change its own flush cadence by asking for the time less often,
and with one client every count repeats exactly for a seed.

Closed loop, one client: the next operation starts when the previous one
returns. Throughput is sampled per :data:`BATCH_OPS` operations on one
long-lived store (cache warm, SSTables and compactions cycling); latency
is per operation.
"""

from __future__ import annotations

import gc
import random
import shutil
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.cluster.hashring import stable_hash64
from repro.core.operators import Updater
from repro.errors import StoreError
from repro.kvstore.api import ConsistencyLevel
from repro.kvstore.cluster import ReplicatedKVStore
from repro.slates.manager import FlushPolicy, SlateManager
from repro.workloads.zipf import ZipfSampler

from bench import layers, stats
from bench.harness import (TRACE_KEEP_EVENTS, Deadline, Result, RunArgs,
                           SpeedMeter, peak_rss_mb, repeat_setup)

KEYS = 50_000
ZIPF_EXPONENT = 0.9
CACHE_SLATES = 5_000
NODES = ["kv0", "kv1", "kv2"]
STORE_KWARGS = dict(replication_factor=2, memtable_flush_bytes=256 * 1024,
                    compaction_threshold=4)
FLUSH_INTERVAL_S = 0.05
OP_SPACING_S = 1e-4
#: Operations before timing starts: fills the cache past capacity and
#: takes every node through its first flushes.
WARMUP_OPS = 15_000
BATCH_OPS = 2_500
MIN_BATCHES = 8
#: Operations of the traced run and of its untraced twin (fixed, so the
#: counts read from them repeat exactly).
TRACED_OPS = 40_000
HISTORY_SLOTS = 24
_WORDS = ("coffee", "ramen", "books", "vinyl", "climbing", "museum", "bakery",
          "cinema", "market", "harbor", "garden", "arcade", "brewery", "trail",
          "gallery", "diner", "library", "stadium", "theatre", "pier")


class ProfileUpdater(Updater):
    """Owner of the profile slates; the driver plays its ``update``."""

    def init_slate(self, key: str) -> Dict[str, Any]:
        return profile_after(key, 0, 0.0)

    def update(self, ctx: Any, event: Any, slate: Any) -> None:
        raise NotImplementedError("the store driver mutates slates itself")


def profile_after(key: str, updates: int, last_ts: float) -> Dict[str, Any]:
    """The ~1 KB profile of ``key`` after ``updates`` updates, the last at
    ``last_ts`` — a closed form, so the driver's shadow is two numbers per
    key and the oracle can rebuild the expected slate."""
    digest = stable_hash64(key)
    interests = [f"{_WORDS[(digest >> (3 * i)) % len(_WORDS)]}-"
                 f"{(digest >> i) % 997}" for i in range(16)]
    whole, rest = divmod(updates, HISTORY_SLOTS)
    return {
        "user": key,
        "checkins": updates,
        "first_seen_ts": float(digest % 86_400),
        "last_seen_ts": last_ts,
        "interests": interests,
        "history": [(digest >> j) % 50 + whole + (1 if j < rest else 0)
                    for j in range(HISTORY_SLOTS)],
        "bio": " ".join(f"{_WORDS[(digest >> (2 * i + 1)) % len(_WORDS)]}"
                        f"{(digest >> (i + 5)) % 89}" for i in range(100)),
    }


def make_ops(seed: int, count: int, keys: int) -> List[Tuple[str, bool]]:
    """``count`` seeded operations ``(key, is_update)``."""
    sampler = ZipfSampler(keys, ZIPF_EXPONENT, seed)
    rng = random.Random(seed + 1)
    return [(f"user{sampler.sample()}", rng.random() < 0.5)
            for _ in range(count)]


class Driver:
    """One store, one manager, one client."""

    def __init__(self, data_dir: Any, ops: List[Tuple[str, bool]]) -> None:
        self.data_dir = data_dir
        self.ops = ops
        self.now = 0.0
        self.next_op = 0
        #: key -> (updates applied, time of the last one)
        self.shadow: Dict[str, Tuple[int, float]] = {}
        self.store_errors = 0
        clock = lambda: self.now  # noqa: E731 -- the driver-owned clock
        self.updater = ProfileUpdater(name="P")
        self.store = ReplicatedKVStore(NODES, clock=clock, data_dir=data_dir,
                                       **STORE_KWARGS)
        self.manager = SlateManager(
            self.store, cache_capacity=CACHE_SLATES,
            flush_policy=FlushPolicy.every(FLUSH_INTERVAL_S), clock=clock,
            consistency=ConsistencyLevel.QUORUM)

    def op(self, index: int) -> None:
        """Operation ``index``: a read, or a read-modify-write."""
        self.now = now = index * OP_SPACING_S
        key, is_update = self.ops[index % len(self.ops)]
        manager = self.manager
        try:
            slate = manager.get(self.updater, key)
            if is_update:
                updates = slate["checkins"] + 1
                slate["checkins"] = updates
                slate["last_seen_ts"] = now
                history = slate["history"]
                history[(updates - 1) % HISTORY_SLOTS] += 1
                slate["history"] = history
                slate.touch(now)
                manager.note_update(slate)
                self.shadow[key] = (updates, now)
            manager.flush_due()
        except StoreError:
            self.store_errors += 1

    def run_ops(self, count: int, op: Optional[Callable[[int], None]] = None,
                ) -> None:
        """The next ``count`` operations, untimed individually."""
        op = op or self.op
        start = self.next_op
        self.next_op = start + count
        for index in range(start, start + count):
            op(index)

    def run_ops_timed(self, count: int) -> Tuple[List[float], List[float],
                                                 List[float]]:
        """The next ``count`` operations with each one's duration in
        seconds, split into (cache-hit reads, cache-miss reads, updates)."""
        clock = time.perf_counter
        hits: List[float] = []
        misses: List[float] = []
        updates: List[float] = []
        cache_stats = self.manager.cache.stats
        ops = self.ops
        start = self.next_op
        self.next_op = start + count
        for index in range(start, start + count):
            missed_before = cache_stats.misses
            begin = clock()
            self.op(index)
            elapsed = clock() - begin
            if ops[index % len(ops)][1]:
                updates.append(elapsed)
            elif cache_stats.misses != missed_before:
                misses.append(elapsed)
            else:
                hits.append(elapsed)
        return hits, misses, updates

    def counters(self) -> Dict[str, int]:
        """Every count the program keeps, nodes summed. The counters run
        from the store's creation; a section's counts are the difference
        of two snapshots (:func:`since`)."""
        manager = self.manager.stats
        cache = self.manager.cache.stats
        out = {
            "kv_reads": manager.kv_reads,
            "kv_writes": manager.kv_writes,
            "batched_writes": manager.batched_writes,
            "batch_flushes": manager.batch_flushes,
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "cache_evictions": cache.evictions,
            "device_bytes_written": sum(
                node.device.stats.sequential_bytes_written
                for node in self.store.nodes.values()),
        }
        for stats in self.store.stats_by_node().values():
            for name, value in stats.items():
                out[name] = out.get(name, 0) + value
        return out

    def finish(self) -> None:
        self.manager.flush_all_dirty()

    def verify(self) -> int:
        """After ``finish()``: a fresh manager over the store reopened from
        the same directory must return the shadow's value for every key
        written. Returns the number that do not."""
        clock = lambda: self.now  # noqa: E731
        reopened = ReplicatedKVStore.reopen(NODES, self.data_dir, clock=clock,
                                            **STORE_KWARGS)
        manager = SlateManager(reopened, cache_capacity=CACHE_SLATES,
                               clock=clock,
                               consistency=ConsistencyLevel.QUORUM)
        wrong = 0
        for key, (updates, last_ts) in self.shadow.items():
            got = manager.get(self.updater, key).as_dict()
            wrong += got != profile_after(key, updates, last_ts)
        return wrong


def since(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    """Counts of the section between two :meth:`Driver.counters`."""
    return {name: value - before[name] for name, value in after.items()}


def _scratch_dir(args: RunArgs, tag: str) -> Any:
    path = args.out_dir / "tmp" / f"store_churn-{args.seed}-{tag}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _setup(args: RunArgs, tag: str, total_ops: int) -> Driver:
    """Generate the operations, build the store on disk and warm it."""
    ops = make_ops(args.seed, total_ops, args.scaled(KEYS, 2_000))
    driver = Driver(_scratch_dir(args, tag), ops)
    driver.run_ops(args.scaled(WARMUP_OPS, 2_000))
    return driver


def _teardown(driver: Driver) -> None:
    shutil.rmtree(driver.data_dir, ignore_errors=True)


# -- end-to-end run --------------------------------------------------------------
def run_end_to_end(args: RunArgs) -> Result:
    batch = args.scaled(BATCH_OPS, 500)
    # Enough distinct operations that the stream does not wrap within a
    # run on a fast machine; ``Driver.op`` wraps if it still does.
    total_ops = args.scaled(250_000, 20_000)
    meter = SpeedMeter()
    driver, setups = repeat_setup(
        meter, lambda: _setup(args, "e2e", total_ops), _teardown)
    try:
        throughputs: List[float] = []
        cpus: List[float] = []
        speeds: List[float] = []
        latency_ms: List[float] = []
        gc.collect()
        meter.refresh()
        deadline = Deadline(args.seconds)
        first_op = driver.next_op
        before = driver.counters()
        while len(throughputs) < MIN_BATCHES or not deadline.passed():
            timed = meter.timed(lambda: driver.run_ops_timed(batch))
            throughputs.append(batch / timed.wall_s)
            cpus.append(timed.cpu_s / batch * 1e6)
            speeds.append(timed.speed)
            for group in timed.result:
                latency_ms.extend(value * 1e3 / timed.speed
                                  for value in group)
        attempted = driver.next_op - first_op
        counts = since(before, driver.counters())
        driver.finish()
        mismatches = driver.verify()
    finally:
        _teardown(driver)

    failed = driver.store_errors + mismatches
    metrics = {
        "throughput_eps": (stats.quartiles(throughputs)[1], "1/s"),
        "cpu_us_per_event": (stats.quartiles(cpus)[1], "us"),
        "latency_p50_ms": (stats.percentile(latency_ms, 0.50), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "setup_s": (stats.quartiles(setups)[1], "s"),
    }
    detail = {
        "phases": [{"phase": "bulk", "loop": "closed", "clients": 1,
                    "ops_per_batch": batch, "batches": len(throughputs),
                    "warmup_ops": args.scaled(WARMUP_OPS, 2_000)}],
        "threads": {"generator": 1, "engine": []},
        "throughput_eps": stats.summary(throughputs),
        "wall_clock": {
            "throughput_eps (uncalibrated)": stats.quartiles(
                [t / s for t, s in zip(throughputs, speeds)])[1],
            "machine_speed": stats.quartiles(speeds)[1]},
        "cpu_us_per_event": stats.summary(cpus),
        "latency_samples": len(latency_ms),
        "latency_p99_ms": stats.percentile(latency_ms, 0.99),
        "setup_s": stats.summary(setups),
        "cache_hit_rate": layers.ratio(
            counts["cache_hits"],
            counts["cache_hits"] + counts["cache_misses"]),
        "flushes": counts["flushes"],
        "compactions": counts["compactions"],
        "oracle": {"keys_checked": len(driver.shadow),
                   "mismatches": mismatches,
                   "store_errors": driver.store_errors},
    }
    return Result(correct=failed == 0, attempted=attempted, failed=failed,
                  metrics=metrics, detail=detail)


# -- traced run ------------------------------------------------------------------
def _counts(counts: Dict[str, int], ops: int) -> Dict[str, float]:
    """Per-layer metrics from the counts of a section of ``ops``
    operations (``manager.stats``, ``cache.stats``, ``stats_by_node()``)."""
    out = {
        "slates.cache.hit_rate": layers.ratio(
            counts["cache_hits"],
            counts["cache_hits"] + counts["cache_misses"]),
        "slates.cache.evictions_per_event": counts["cache_evictions"] / ops,
        "slates.manager.kv_reads_per_event": counts["kv_reads"] / ops,
        "slates.manager.kv_writes_per_event": counts["kv_writes"] / ops,
        "slates.manager.batch_fill": layers.ratio(counts["batched_writes"],
                                                  counts["batch_flushes"]),
    }
    out.update(layers.kv_node_metrics({"all": counts}))
    return out


def _fixed_pass(args: RunArgs, tag: str, meter: SpeedMeter,
                tracer: Any = None) -> Tuple[Driver, Any, Dict[str, int]]:
    """Warm a fresh store, then run :data:`TRACED_OPS` operations in one
    timed section, each under a driver-layer root span when ``tracer`` is
    given (per-operation durations otherwise). Returns the finished
    driver, the timing and the program's counts over the timed section
    alone — the warm-up before it and the final flush after it are in
    neither the counts nor the spans."""
    ops = args.scaled(TRACED_OPS, 4_000)
    driver = _setup(args, tag, ops + args.scaled(WARMUP_OPS, 2_000))
    gc.collect()
    before = driver.counters()
    if tracer is None:
        timed = meter.timed_fresh(lambda: driver.run_ops_timed(ops))
    else:
        # The warm-up ran under the patches; only the timed section counts.
        tracer.reset()
        tracer.keep = True
        first = driver.next_op
        spanned = tracer.wrap("bench.driver", "op", driver.op,
                              request=lambda call: call[0] - first)

        def op(index: int) -> None:
            if index - first == TRACE_KEEP_EVENTS:
                tracer.keep = False
            spanned(index)

        timed = meter.timed_fresh(lambda: driver.run_ops(ops, op))
        tracer.uninstall()
    counts = since(before, driver.counters())
    driver.finish()
    return driver, timed, counts


def run_traced(args: RunArgs) -> Result:
    from bench.tracer import Tracer

    ops = args.scaled(TRACED_OPS, 4_000)
    meter = SpeedMeter()
    failed = 0
    plain = traced = None
    try:
        # Untraced twin: wall time for the overhead ratio, op latencies,
        # and every count the program keeps.
        plain, plain_timed, plain_counts = _fixed_pass(args, "plain", meter)
        hits, misses, updates = plain_timed.result
        every = hits + misses + updates
        to_us = 1e6 / plain_timed.speed
        values = _counts(plain_counts, ops)
        values.update({
            "store.get_hit_us_p50": stats.percentile(hits, 0.50) * to_us,
            "store.get_miss_us_p50": stats.percentile(misses, 0.50) * to_us,
            "store.update_us_p50": stats.percentile(updates, 0.50) * to_us,
            "store.op_us_p99": stats.percentile(every, 0.99) * to_us,
            "store.stall_ms_max": max(every) * to_us / 1e3,
            # Bytes held per byte of live data (one copy of the newest
            # cell per row), once everything is flushed.
            "kvstore.node.space_amp": layers.ratio(
                plain.store.stored_bytes(),
                sum(cell.size_bytes() for cell in
                    plain.store.column_cells("P").values())),
        })
        failed += plain.store_errors + plain.verify()
        keys_checked = len(plain.shadow)
    finally:
        if plain is not None:
            _teardown(plain)

    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_timed, traced_counts = _fixed_pass(
            args, "traced", meter, tracer)
        failed += traced.store_errors + traced.verify()
    finally:
        tracer.uninstall()
        if traced is not None:
            _teardown(traced)
    # Tracing must be passive: same counts with and without it.
    same_counts = traced_counts == plain_counts

    # One driver-layer root span per operation: together they must cover
    # the timed wall (the loop between them is the only thing outside).
    spans, detail, uncovered = layers.traced_pass(
        tracer, args.out_dir, "store_churn", ops, traced_timed, plain_timed,
        tracer.by_layer()["bench.driver"]["total_ns"])
    values.update(spans)
    # Bytes the devices were charged for writing (commit log + flushed +
    # compacted, every replica) per user byte handed to the store, both
    # over the traced pass's timed section.
    values["kvstore.node.write_amp"] = layers.ratio(
        traced_counts["device_bytes_written"],
        tracer.counters["kv.user_bytes"])
    failed += int(not same_counts) + uncovered
    detail.update({
        "traced_equals_untraced": same_counts,
        "exact_counts": True,
        "oracle": {"keys_checked": keys_checked},
    })
    return Result(correct=failed == 0, attempted=ops * 2, failed=failed,
                  metrics=layers.complete(values), detail=detail)


def run(args: RunArgs) -> Result:
    return run_traced(args) if args.trace else run_end_to_end(args)
