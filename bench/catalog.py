"""The benchmark's metric and workload catalogue.

One table each for workloads, end-to-end metrics and per-layer metrics;
``BENCHMARK.json`` is generated from them (``python -m bench
--write-manifest``) and ``bench/tests`` keeps the two in step. Each
per-layer row says, before anything is measured, which end-to-end metric
it should move, on which workload, and where the prediction is *no
change* — that is what lets a later change be checked against its claim.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

#: One measuring run lasts this long (``--seconds``); the driver passes it.
RUN_SECONDS = 20

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("sim_chain",
     "Fused simulator path on trivial operators over 200 hot keys: DES "
     "heap, hash ring, dispatcher and queues do the work; cache all "
     "hits, codec and store idle."),
    ("sim_eo",
     "Same simulator with effectively-once delivery and batching on the "
     "reputation app: replay journal, dedup, checkpoint flushes and real "
     "operator CPU; the path fusion switches off."),
    ("local_tweets",
     "The real threaded engine on tweets, bulk then open loop at 2000 "
     "ev/s: lock and condition contention, queue wait, GIL and the "
     "background flusher show only here."),
    ("store_churn",
     "Slate manager over a durable 3-node store with a working set 10x "
     "the cache: misses, evictions, codec, commit log, memtable flushes, "
     "SSTable probes and compactions."),
)
WORKLOAD_NAMES: Tuple[str, ...] = tuple(name for name, _ in WORKLOADS)


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("throughput_eps", "1/s", "higher", 0.25,
             "source events (store: ops) per second of the closed bulk "
             "phase, median over the timed repeats, in calibrated seconds"),
    EndToEnd("cpu_us_per_event", "us", "lower", 0.25,
             "process CPU (all threads) per source event over the same "
             "repeats, calibrated; on local_tweets over the open-loop "
             "phase and uncalibrated (cost at a fixed offered load, idle "
             "wake-ups included)"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25,
             "median time to a unit of completion: local_tweets an "
             "updater delivery measured from its source event's due time "
             "(open loop, wall clock); store_churn one operation "
             "(calibrated); sim_* one slice of the simulated stream, 250 "
             "source events on sim_chain and 50 on sim_eo (calibrated)"),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.15,
             "ru_maxrss of the workload's process"),
    EndToEnd("setup_s", "s", "lower", 0.25,
             "input generation + app/runtime/store construction + the "
             "discarded warm-up; median of three set-ups, calibrated"),
)
END_TO_END_NAMES: Tuple[str, ...] = tuple(m.name for m in END_TO_END)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end metrics this one should move ...
    moves: Tuple[str, ...]
    #: ... on these workloads ...
    on: Tuple[str, ...]
    #: ... and the workloads where the prediction is no change.
    not_on: Tuple[str, ...] = ()


_TP = ("throughput_eps",)
_TP_CPU = ("throughput_eps", "cpu_us_per_event")
_LAT = ("latency_p50_ms",)
_SIMS = ("sim_chain", "sim_eo")
_ALL = WORKLOAD_NAMES

#: layer -> (workloads where its spans do real work, where they do none)
_LAYER_SCOPE: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "sim.des": (("sim_eo",), ("local_tweets", "store_churn")),
    "sim.runtime": (_SIMS, ("local_tweets", "store_churn")),
    "muppet.local": (("local_tweets",), _SIMS + ("store_churn",)),
    "cluster.hashring": (_SIMS + ("store_churn",), ()),
    "muppet.dispatch": (("sim_eo", "local_tweets"), ("store_churn",)),
    "muppet.queues": (("sim_eo", "local_tweets"), ("store_churn",)),
    "core.stream": (("sim_chain", "sim_eo", "local_tweets"),
                    ("store_churn",)),
    "core.operators": (("sim_eo", "local_tweets"), ("store_churn",)),
    "slates.manager": (("store_churn", "sim_eo", "local_tweets"), ()),
    "slates.cache": (("store_churn",), ()),
    "slates.codec": (("store_churn", "local_tweets"), ("sim_chain",)),
    "kvstore.cluster": (("store_churn",), ("sim_chain",)),
    "kvstore.node": (("store_churn",), ("sim_chain",)),
    "kvstore.memtable": (("store_churn",), ("sim_chain",)),
    "kvstore.commitlog": (("store_churn",), ("sim_chain",)),
    "kvstore.sstable": (("store_churn",), _SIMS + ("local_tweets",)),
    "bench.driver": ((), ()),
}


def _layer_rows() -> List[PerLayer]:
    rows = []
    for layer, (on, not_on) in _LAYER_SCOPE.items():
        moves = _TP_CPU if on else ()
        rows.append(PerLayer(f"{layer}.calls_per_event", "1/event",
                             "lower", moves, on, not_on))
        rows.append(PerLayer(f"{layer}.self_us_per_event", "us/event",
                             "lower", moves, on, not_on))
    return rows


PER_LAYER: Tuple[PerLayer, ...] = tuple(_layer_rows()) + (
    # -- simulator ------------------------------------------------------------
    PerLayer("sim.des.steps_per_event", "1/event", "lower", _TP_CPU,
             _SIMS, ("local_tweets", "store_churn")),
    PerLayer("sim.fastforward.inlined_steps", "count", "higher", _TP_CPU,
             ("sim_chain",), ("sim_eo", "local_tweets", "store_churn")),
    PerLayer("muppet.dispatch.memo_hit_rate", "ratio", "higher", _TP_CPU,
             ("sim_chain", "sim_eo", "local_tweets"), ("store_churn",)),
    PerLayer("muppet.dispatch.secondary_share", "ratio", "lower", _TP,
             ("sim_chain", "sim_eo", "local_tweets"), ("store_churn",)),
    PerLayer("sim.replay.recorded_per_event", "1/event", "lower", _TP,
             ("sim_eo",), ("sim_chain",)),
    PerLayer("sim.dataplane.avg_batch_events", "count", "higher", _TP,
             ("sim_eo",), ("sim_chain",)),
    PerLayer("sim.checkpoint_epochs", "count", "lower", _TP,
             ("sim_eo",), ("sim_chain",)),
    # Simulated latency is a model output: a change means the model
    # changed, not that anything got faster.
    PerLayer("sim.latency_p99_ms", "ms", "lower", (), (), ()),
    # Tail of the slice times behind latency_p50_ms (flusher ticks,
    # checkpoint bursts).
    PerLayer("sim.slice_ms_p99", "ms", "lower", (), _SIMS),
    PerLayer("core.reference.eps", "1/s", "higher", _TP_CPU,
             ("sim_eo", "local_tweets"), ("sim_chain", "store_churn")),
    # -- threaded engine ------------------------------------------------------
    PerLayer("muppet.queues.wait_ms_p50", "ms", "lower", _LAT,
             ("local_tweets",)),
    PerLayer("muppet.queues.wait_ms_p99", "ms", "lower", _LAT,
             ("local_tweets",)),
    PerLayer("muppet.queues.peak_depth", "count", "lower", _LAT,
             ("local_tweets",)),
    PerLayer("local.ingest_us_p50", "us", "lower", _TP,
             ("local_tweets",), _SIMS),
    PerLayer("local.bulk_eps_t1", "1/s", "higher", _TP,
             ("local_tweets",), _SIMS),
    PerLayer("local.bulk_eps_t2", "1/s", "higher", _TP,
             ("local_tweets",), _SIMS),
    PerLayer("local.bulk_eps_t4", "1/s", "higher", _TP,
             ("local_tweets",), _SIMS),
    # Voluntary context switches (a thread blocked on a lock, a condition
    # or the GIL) per tweet of the two-worker, two-core bulk repeat.
    PerLayer("local.bulk_switches_per_event", "1/event", "lower", _TP,
             ("local_tweets",), _SIMS),
    PerLayer("local1.bulk_eps", "1/s", "higher", _TP,
             ("local_tweets",), _SIMS),
    # The tail of the open-loop latency, over the whole phase. Not an
    # end-to-end metric: it is set by how the flusher and the workers
    # happen to hand the GIL and the manager lock to each other, and over
    # twelve runs of the same code its spread was 0.46 (0.19 for the
    # steadiest of forty estimators tried) — no bound could referee it.
    PerLayer("local.latency_p99_ms", "ms", "lower", (), ("local_tweets",)),
    PerLayer("local.latency_p999_ms", "ms", "lower", (), ("local_tweets",)),
    PerLayer("local.latency_max_ms", "ms", "lower", (), ("local_tweets",)),
    PerLayer("local.backlog_end", "count", "lower", _LAT,
             ("local_tweets",)),
    PerLayer("local.drain_tail_ms", "ms", "lower", _LAT,
             ("local_tweets",)),
    # Generator fidelity: says whether latency_* may be trusted, nothing
    # about the program.
    PerLayer("gen.late_ms_p99", "ms", "lower", (), ("local_tweets",)),
    PerLayer("gen.late_ms_max", "ms", "lower", (), ("local_tweets",)),
    # -- slates ---------------------------------------------------------------
    PerLayer("slates.cache.hit_rate", "ratio", "higher", _TP,
             ("store_churn",), ("sim_chain", "local_tweets")),
    PerLayer("slates.cache.evictions_per_event", "1/event", "lower", _TP,
             ("store_churn",), ("sim_chain", "local_tweets")),
    PerLayer("slates.manager.kv_reads_per_event", "1/event", "lower", _TP,
             ("store_churn",), ("sim_chain", "local_tweets")),
    PerLayer("slates.manager.kv_writes_per_event", "1/event", "lower", _TP,
             ("store_churn",), ("sim_chain", "local_tweets")),
    PerLayer("slates.manager.batch_fill", "count", "higher", _TP,
             ("store_churn",), ("sim_chain", "local_tweets")),
    PerLayer("slates.codec.encode_bytes_per_event", "bytes/event", "lower",
             ("throughput_eps", "latency_p50_ms"),
             ("store_churn", "local_tweets"), ("sim_chain",)),
    PerLayer("slates.codec.decode_bytes_per_event", "bytes/event", "lower",
             _TP, ("store_churn",), ("sim_chain",)),
    PerLayer("slates.codec.ratio", "ratio", "higher", _TP,
             ("store_churn",), ("sim_chain",)),
    # -- kv store -------------------------------------------------------------
    PerLayer("kvstore.memtable.hit_rate", "ratio", "higher", _TP_CPU,
             ("store_churn",), ("sim_chain", "local_tweets")),
    PerLayer("kvstore.node.flushes", "count", "lower", _TP_CPU,
             ("store_churn",), ("sim_chain", "sim_eo", "local_tweets")),
    PerLayer("kvstore.node.compactions", "count", "lower", _TP_CPU,
             ("store_churn",), ("sim_chain", "sim_eo", "local_tweets")),
    PerLayer("kvstore.node.write_amp", "ratio", "lower", _TP_CPU,
             ("store_churn",), ("sim_chain", "sim_eo", "local_tweets")),
    PerLayer("kvstore.node.space_amp", "ratio", "lower", _TP,
             ("store_churn",), ("sim_chain", "sim_eo", "local_tweets")),
    PerLayer("kvstore.sstable.probes_per_get", "1/get", "lower", _TP,
             ("store_churn",)),
    PerLayer("kvstore.sstable.bloom_skip_rate", "ratio", "higher", _TP,
             ("store_churn",)),
    PerLayer("store.get_hit_us_p50", "us", "lower", _TP + _LAT,
             ("store_churn",)),
    PerLayer("store.get_miss_us_p50", "us", "lower", _TP + _LAT,
             ("store_churn",)),
    PerLayer("store.update_us_p50", "us", "lower", _TP + _LAT,
             ("store_churn",)),
    PerLayer("store.op_us_p99", "us", "lower", (), ("store_churn",)),
    PerLayer("store.stall_ms_max", "ms", "lower", (), ("store_churn",)),
    # -- the tracer itself ----------------------------------------------------
    PerLayer("trace.overhead_ratio", "ratio", "lower", (), _ALL),
)
PER_LAYER_NAMES: Tuple[str, ...] = tuple(m.name for m in PER_LAYER)


#: One client and a driver-owned or virtual clock: counts from these
#: workloads must repeat exactly for a given seed. ``local_tweets`` has
#: real threads and a wall-clock flusher; its counts come with a spread.
EXACT_WORKLOADS: Tuple[str, ...] = ("sim_chain", "sim_eo", "store_churn")

_WALL_CLOCK_UNITS = ("us/event", "us", "ms", "1/s")


def is_exact(metric: PerLayer) -> bool:
    """True for per-layer metrics that are counts (or simulated time),
    not wall-clock measurements."""
    if metric.name == "sim.latency_p99_ms":
        return True
    return (metric.unit not in _WALL_CLOCK_UNITS
            and metric.name != "trace.overhead_ratio")


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "bench"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }
