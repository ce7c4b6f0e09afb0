"""Turn a traced run and the program's public stats into the per-layer
metric set of :mod:`bench.catalog`.

A layer a workload never enters reports 0 calls and 0 time; a stat that
does not exist on a workload (queue wait on the store driver, SSTable
probes in the simulator) reports 0 as well, so that every traced run
prints every per-layer metric.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Mapping, Tuple

from bench.catalog import PER_LAYER


def family_sum(family: Mapping[str, Any], suffix: str) -> float:
    """Sum ``"<member>.<suffix>"`` over the members of one registry
    family (the simulator keys slate and kv stats by machine)."""
    dotted = "." + suffix
    return sum(value for name, value in family.items()
               if name == suffix or name.endswith(dotted))


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(by_layer: Mapping[str, Mapping[str, float]],
                 events: int, speed: float) -> Dict[str, float]:
    """``<layer>.calls_per_event`` and ``<layer>.self_us_per_event``, the
    latter divided by ``speed``, the machine-speed factor of the traced
    section (1 where the workload times that phase by the wall clock)."""
    out: Dict[str, float] = {}
    for layer, row in by_layer.items():
        out[f"{layer}.calls_per_event"] = row["calls"] / events
        out[f"{layer}.self_us_per_event"] = (
            row["self_ns"] / 1e3 / events / speed)
    return out


def codec_metrics(counters: Mapping[str, int],
                  events: int) -> Dict[str, float]:
    """Codec byte counts taken at the traced ``encode``/``decode``
    boundaries (the codec keeps no stats of its own)."""
    encoded = counters.get("codec.encoded_bytes", 0)
    return {
        "slates.codec.encode_bytes_per_event": encoded / events,
        "slates.codec.decode_bytes_per_event":
            counters.get("codec.decoded_bytes", 0) / events,
        "slates.codec.ratio": ratio(counters.get("codec.raw_bytes", 0),
                                    encoded),
    }


def kv_node_metrics(nodes: Mapping[str, Mapping[str, int]],
                    ) -> Dict[str, float]:
    """LSM counters summed over ``stats_by_node()`` (or over whatever
    rows of the same shape the caller has)."""
    total = {key: sum(stats.get(key, 0) for stats in nodes.values())
             for key in ("gets", "memtable_hits", "sstables_probed",
                         "bloom_skips", "flushes", "compactions")}
    looked_at = total["sstables_probed"] + total["bloom_skips"]
    return {
        "kvstore.memtable.hit_rate": ratio(total["memtable_hits"],
                                           total["gets"]),
        "kvstore.node.flushes": total["flushes"],
        "kvstore.node.compactions": total["compactions"],
        "kvstore.sstable.probes_per_get": ratio(total["sstables_probed"],
                                                total["gets"]),
        "kvstore.sstable.bloom_skip_rate": ratio(total["bloom_skips"],
                                                 looked_at),
    }


def traced_pass(tracer: Any, out_dir: Path, workload: str, events: int,
                traced: Any, plain: Any, covered_ns: int,
                ) -> Tuple[Dict[str, float], Dict[str, Any], int]:
    """What every workload reports from its traced pass.

    ``traced`` and ``plain`` are the :class:`bench.harness.Timed` of the
    traced pass and of its untraced twin (both calibrated or both wall
    clock, as the workload times that phase); ``covered_ns`` is what the
    driver thread's root spans add up to. Writes the kept spans and
    returns (metrics, result-file detail, 1 if the root spans miss the
    traced wall by more than 5 % else 0).
    """
    values = span_metrics(tracer.by_layer(), events, traced.speed)
    values.update(codec_metrics(tracer.counters, events))
    values["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    coverage = covered_ns / 1e9 / traced.raw_wall_s
    out_dir.mkdir(parents=True, exist_ok=True)
    detail = {
        "events": events,
        "functions": tracer.by_function(),
        "self_time_coverage": coverage,
        "spans_written": tracer.write_spans(
            out_dir / f"trace_{workload}.jsonl"),
    }
    return values, detail, int(abs(coverage - 1.0) > 0.05)


def complete(values: Mapping[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every catalogue metric with its unit; absent ones are 0. Unknown
    names are a bug in the workload and raise."""
    unknown = set(values) - {metric.name for metric in PER_LAYER}
    if unknown:
        raise KeyError(f"metrics not in the catalogue: {sorted(unknown)}")
    return {metric.name: (float(values.get(metric.name, 0.0)), metric.unit)
            for metric in PER_LAYER}
