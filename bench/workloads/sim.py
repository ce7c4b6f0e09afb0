"""The two simulator workloads: ``sim_chain`` and ``sim_eo``.

Both build the runtime with ``create_runtime(..., SimConfig(fastforward=
True))`` on a 4x4-core cluster and time ``runtime.run()`` only — from
the first source event to the drained, flushed horizon. They differ in
what the same engine is asked to do: ``sim_chain`` is eligible for the
fused loop, ``sim_eo`` turns on the features that switch fusion off.

A repeat is a fresh runtime over the same seeded events, so every count
the simulator reports (steps, ``counter_report()``, simulated latency)
must be identical from repeat to repeat; that is checked, and a
difference fails the run.

Slice latency. ``run()`` cannot be stepped from outside, but the source
iterator is the benchmark's, and the engine pulls it lazily as simulated
time advances. The iterator notes the wall clock every
``slice_events`` events; the gaps are the wall time the simulator
needed to advance by one slice of the stream, flusher ticks and
checkpoint bursts included.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List

from repro.cluster import ClusterSpec
from repro.core.application import Application
from repro.core.event import Event
from repro.core.reference import ReferenceExecutor
from repro.sim import SimConfig, create_runtime
from repro.sim.sources import Source
from repro.slates.manager import FlushPolicy
from repro.workloads.tweets import TweetGenerator

from bench import layers, stats
from bench.harness import (TRACE_KEEP_EVENTS, Deadline, Result, RunArgs,
                           SpeedMeter, peak_rss_mb, repeat_setup)
from bench.workloads.apps import (build_chain_app, build_tweet_app,
                                  order_free_view)

#: Simulated seconds run past the last source event so queues drain and
#: the last flusher tick and checkpoint epoch land inside the run.
TAIL_S = 1.0
MIN_REPEATS = 5


@dataclass(frozen=True)
class SimSpec:
    name: str
    events: int
    rate: float
    #: Source events per latency slice (about 7 ms of wall time each).
    slice_events: int
    make_events: Callable[[int, int, float], List[Event]]
    build_app: Callable[[], Application]
    make_config: Callable[[], SimConfig]
    #: (runtime, events) -> number of oracle mismatches
    oracle: Callable[[Any, List[Event]], int]


# -- inputs ----------------------------------------------------------------------
def chain_events(seed: int, count: int, rate: float) -> List[Event]:
    """``count`` events at ``rate`` ev/s over 200 keys drawn per seed."""
    rng = random.Random(seed)
    return [Event("S1", i / rate, f"k{rng.randrange(200)}", i)
            for i in range(count)]


def tweet_events(seed: int, count: int, rate: float,
                 users: int = 20_000) -> List[Event]:
    """``count`` seeded tweets (Zipf authors, retweets and replies)."""
    return TweetGenerator(sid="S1", rate_per_s=rate, num_users=users,
                          seed=seed).take(count)


# -- oracles ---------------------------------------------------------------------
def chain_oracle(runtime: Any, events: List[Event]) -> int:
    """U1's counts must sum to the events offered."""
    counted = sum(slate["count"] for slate in
                  runtime.slates_of("U1", read_through=True).values())
    return abs(len(events) - counted)


def tweet_reference(events: List[Event]) -> Dict[str, List[int]]:
    """Per-user order-free fields from the reference executor."""
    result = ReferenceExecutor(build_tweet_app()).run(events)
    return order_free_view(result.slates_of("U1"))


def tweet_oracle(runtime: Any, events: List[Event]) -> int:
    """Per-user ``tweets`` and ``endorsements_received`` must equal the
    reference executor's on the same tweets."""
    want = tweet_reference(events)
    got = order_free_view(runtime.slates_of("U1", read_through=True))
    return sum(1 for user in want.keys() | got.keys()
               if want.get(user) != got.get(user))


def eo_config() -> SimConfig:
    return SimConfig(
        fastforward=True,
        delivery_semantics="effectively-once",
        checkpoint_epoch_s=0.5,
        batch_max_events=64,
        batch_linger_s=0.002,
        flush_policy=FlushPolicy.every(0.2),
    )


SIM_CHAIN = SimSpec(
    name="sim_chain", events=60_000, rate=10_000.0, slice_events=250,
    make_events=chain_events, build_app=build_chain_app,
    make_config=lambda: SimConfig(fastforward=True), oracle=chain_oracle)

SIM_EO = SimSpec(
    name="sim_eo", events=16_000, rate=4_000.0, slice_events=50,
    make_events=tweet_events, build_app=build_tweet_app,
    make_config=eo_config, oracle=tweet_oracle)


# -- one repeat ------------------------------------------------------------------
def _paced(events: List[Event], marks: List[float], slice_events: int,
           tracer: Any = None) -> Iterator[Event]:
    """The source iterator: notes the wall clock at every slice boundary
    and ends span keeping after the first events of a traced run."""
    clock = time.perf_counter
    for i, event in enumerate(events):
        if i % slice_events == 0:
            marks.append(clock())
            if tracer is not None and i >= TRACE_KEEP_EVENTS:
                tracer.keep = False
        yield event
    marks.append(clock())


def _build(spec: SimSpec, events: List[Event], marks: List[float],
           tracer: Any = None) -> Any:
    return create_runtime(
        spec.build_app(), ClusterSpec.uniform(4, cores=4),
        spec.make_config(),
        [Source("S1", _paced(events, marks, spec.slice_events, tracer))])


def _horizon(spec: SimSpec, events: List[Event]) -> float:
    return len(events) / spec.rate + TAIL_S


def _setup(spec: SimSpec, args: RunArgs) -> List[Event]:
    """Generate the inputs and run the discarded warm-up repeat."""
    events = spec.make_events(args.seed, args.scaled(spec.events, 1_000),
                              spec.rate)
    _build(spec, events, []).run(_horizon(spec, events))
    return events


# -- end-to-end run --------------------------------------------------------------
def run_end_to_end(spec: SimSpec, args: RunArgs) -> Result:
    meter = SpeedMeter()
    events, setups = repeat_setup(meter, lambda: _setup(spec, args))
    count = len(events)
    horizon = _horizon(spec, events)

    throughputs: List[float] = []
    cpu_us: List[float] = []
    slices_ms: List[float] = []
    speeds: List[float] = []
    reports: List[str] = []
    failed = 0
    runtime = None
    deadline = Deadline(args.seconds)
    while len(throughputs) < MIN_REPEATS or not deadline.passed():
        runtime = None
        gc.collect()
        marks: List[float] = []
        runtime = _build(spec, events, marks)
        timed = meter.timed_fresh(lambda: runtime.run(horizon))
        report = timed.result
        throughputs.append(count / timed.wall_s)
        cpu_us.append(timed.cpu_s / count * 1e6)
        speeds.append(timed.speed)
        slices_ms.extend((b - a) * 1e3 / timed.speed
                         for a, b in zip(marks, marks[1:]))
        reports.append(report.counter_report())
        failed += report.counters.lost_total()

    mismatches = spec.oracle(runtime, events)
    repeats_differ = sum(1 for text in reports if text != reports[0])
    failed += mismatches + repeats_differ
    metrics = {
        "throughput_eps": (stats.quartiles(throughputs)[1], "1/s"),
        "cpu_us_per_event": (stats.quartiles(cpu_us)[1], "us"),
        "latency_p50_ms": (stats.percentile(slices_ms, 0.50), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
        "setup_s": (stats.quartiles(setups)[1], "s"),
    }
    detail = {
        "phases": [{"phase": "bulk", "loop": "closed", "clients": 1,
                    "events_per_repeat": count,
                    "repeats": len(throughputs),
                    "simulated_rate_eps": spec.rate}],
        "threads": {"generator": 1, "engine": []},
        "throughput_eps": stats.summary(throughputs),
        "cpu_us_per_event": stats.summary(cpu_us),
        "wall_clock": {
            "throughput_eps (uncalibrated)": stats.quartiles(
                [t / s for t, s in zip(throughputs, speeds)])[1],
            "machine_speed": stats.quartiles(speeds)[1]},
        "latency_samples": len(slices_ms),
        "latency_p99_ms": stats.percentile(slices_ms, 0.99),
        "setup_s": stats.summary(setups),
        "oracle": {"mismatches": mismatches,
                   "repeats_differing": repeats_differ},
        "counter_report": reports[0].splitlines(),
    }
    return Result(correct=failed == 0, attempted=count * len(throughputs),
                  failed=failed, metrics=metrics, detail=detail)


# -- traced run ------------------------------------------------------------------
def _public_stats(runtime: Any, report: Any, count: int) -> Dict[str, float]:
    """Per-layer metrics read from ``SimReport`` and ``ff_summary()``."""
    metrics = report.metrics
    dispatch = metrics["dispatch"]
    slates = metrics["slates"]
    hits = layers.family_sum(slates, "cache_hits")
    misses = layers.family_sum(slates, "cache_misses")
    dataplane = report.dataplane
    out = {
        "sim.des.steps_per_event": report.steps / count,
        "sim.fastforward.inlined_steps":
            runtime.ff_summary()["inlined_steps"],
        "muppet.dispatch.memo_hit_rate": layers.ratio(
            dispatch["memo_hits"],
            dispatch["memo_hits"] + dispatch["memo_misses"]),
        "muppet.dispatch.secondary_share": layers.ratio(
            dispatch["to_secondary"], dispatch["dispatched"]),
        "sim.replay.recorded_per_event": report.replay.recorded / count,
        "sim.dataplane.avg_batch_events": layers.ratio(
            dataplane.batched_events, dataplane.batches_sent),
        "sim.checkpoint_epochs": report.master_stats["checkpoint_epochs"],
        "sim.latency_p99_ms": report.latency.p99 * 1e3,
        "muppet.queues.peak_depth": report.queue_peak_depth,
        "slates.cache.hit_rate": layers.ratio(hits, hits + misses),
        "slates.cache.evictions_per_event":
            layers.family_sum(slates, "cache_evictions") / count,
        "slates.manager.kv_reads_per_event":
            layers.family_sum(slates, "kv_reads") / count,
        "slates.manager.kv_writes_per_event":
            layers.family_sum(slates, "kv_writes") / count,
    }
    out.update(layers.kv_node_metrics(report.kv_stats))
    return out


def run_traced(spec: SimSpec, args: RunArgs) -> Result:
    from bench.tracer import DRIVER_LAYER, Tracer

    meter = SpeedMeter()
    events = _setup(spec, args)
    count = len(events)
    horizon = _horizon(spec, events)

    marks: List[float] = []
    runtime = _build(spec, events, marks)
    plain = meter.timed_fresh(lambda: runtime.run(horizon))
    values = _public_stats(runtime, plain.result, count)
    values["sim.slice_ms_p99"] = stats.percentile(
        [(b - a) * 1e3 / plain.speed for a, b in zip(marks, marks[1:])],
        0.99)
    plain_report = plain.result.counter_report()
    mismatches = spec.oracle(runtime, events)

    reference = meter.timed_fresh(
        lambda: ReferenceExecutor(spec.build_app()).run(events))
    values["core.reference.eps"] = count / reference.wall_s

    tracer = Tracer(event_spacing_s=1.0 / spec.rate)
    tracer.install()
    try:
        tracer.keep = True
        runtime = _build(spec, events, [], tracer)
        run = tracer.wrap(DRIVER_LAYER, "timed_phase", runtime.run)
        traced = meter.timed_fresh(lambda: run(horizon))
        covered_ns = tracer.self_ns_of_current_thread()
    finally:
        tracer.uninstall()
    traced_report = traced.result.counter_report()

    spans, detail, uncovered = layers.traced_pass(
        tracer, args.out_dir, spec.name, count, traced, plain, covered_ns)
    values.update(spans)
    # Tracing must be passive: same counters with and without it.
    failed = mismatches + int(traced_report != plain_report) + uncovered
    detail.update({
        "traced_equals_untraced": traced_report == plain_report,
        "oracle": {"mismatches": mismatches},
        "exact_counts": True,
    })
    return Result(correct=failed == 0, attempted=count * 2, failed=failed,
                  metrics=layers.complete(values), detail=detail)


def run(spec: SimSpec, args: RunArgs) -> Result:
    return run_traced(spec, args) if args.trace else run_end_to_end(
        spec, args)
