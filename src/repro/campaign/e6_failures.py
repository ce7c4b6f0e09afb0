"""E6 — failure handling (Section 4.3).

Paper: workers detect dead peers on send ("in most cases ... allows us to
detect worker failures and recover from them in a timely fashion"); the
master broadcast reroutes the ring; queued events and unflushed slate
changes are lost by design, because "low latency is far more important
... The system should be able to cope with failures very quickly to avoid
falling too far behind the stream" — versus MapReduce, where "it is
always possible (even if inconvenient) to restart ... from scratch".
(E6e, the delivery-semantics matrix, is the ``delivery_matrix``
campaign.)
"""

from __future__ import annotations

from typing import Any, List, Mapping, Tuple

from repro.baselines.mapreduce import MapReduceCosts
from repro.campaign.claims import (
    Metrics,
    Row,
    by_param,
    counted,
    e_row,
    failed,
    latency_ms,
    ms,
    run_counting,
)
from repro.cluster import ClusterSpec
from repro.faults import FaultSchedule
from repro.sim import SimConfig, SimRuntime, constant_rate
from repro.sim.report import SimReport
from repro.slates.manager import FlushPolicy

RATE = 2000.0


def crash_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """Four machines at 2,000 ev/s for 2 s; m001 dies at t = 1 s for good."""
    config = SimConfig(
        flush_policy=FlushPolicy.every(float(params["flush_interval"])),
        queue_capacity=100_000,
    )
    source = constant_rate(
        "S1", rate_per_s=RATE, duration_s=2.0, key_fn=lambda i: f"k{i % 64}"
    )
    cluster = ClusterSpec.uniform(4, cores=4)
    runtime, report = run_counting(source, cluster, config, 12.0, [(1.0, "m001")])
    detection = report.failure_detection_s
    if detection is None:
        raise ValueError("no send touched the dead machine: nothing was detected")
    # E6c: MapReduce's answer to failure is a from-scratch restart: the
    # recovery cost is the whole job (here one hour of this stream's
    # history, 32-way), and the stream keeps accumulating meanwhile
    # ('streams continue to flow at their own rate, oblivious to
    # processing issues').
    restart_s = MapReduceCosts().job_duration(int(RATE * 3600), parallelism=32)
    return {
        "detection_ms": ms(detection),
        "backlog_at_detection": int(RATE * detection),
        "broadcasts": report.master_stats["broadcasts_sent"],
        "duplicate_reports": report.master_stats["duplicate_reports"],
        "offered": int(RATE * 2.0),
        "counted": counted(runtime),
        "lost_failure": report.counters.lost_failure,
        **latency_ms(report, ("p99",)),  # post-failure
        "dirty_slates_lost": (
            runtime.machines["m001"].central_mgr.stats.lost_dirty_on_crash
        ),
        "mapreduce_restart_s": round(restart_s, 3),
        "backlog_at_mapreduce_restart": int(RATE * restart_s),
    }


def verify_crash(rows: List[Row]) -> List[str]:
    """E6a and E6c at the 0.2 s flush interval; E6b across the sweep:
    whatever was not yet flushed is lost when an updater fails."""
    cells = by_param(rows, "flush_interval")
    usual, restart_ms = cells[0.2], cells[0.2]["mapreduce_restart_s"] * 1e3
    return failed(
        (usual["detection_ms"] < 100.0, "detection took more than about one hop"),
        (usual["lost_failure"] < 0.15 * usual["offered"], "event loss is not bounded"),
        (usual["counted"] >= 0.75 * usual["offered"], "the stream stopped flowing"),
        (
            cells[0.05]["dirty_slates_lost"] <= cells[5.0]["dirty_slates_lost"],
            "flushing more often lost more dirty slates",
        ),
        (cells[5.0]["dirty_slates_lost"] > 0, "a 5 s interval lost no dirty slate"),
        (restart_ms > 100 * usual["detection_ms"], "a restart is < 100x a detection"),
    )


def recover_run(faults: str, **options: Any) -> Tuple[SimRuntime, SimReport]:
    """Beyond the paper: the Section 4.3 gap ('until operator
    intervention') closed. Under ``faults="crash"`` a chaos schedule
    kills m001 mid-stream and revives it; the master broadcasts recovery,
    the ring re-admits the machine, its slates re-hydrate lazily from the
    kv-store, and hinted handoff drains to its kv node. ``options`` are
    further :class:`SimConfig` fields (``analyze invariants --e6d`` turns
    on effectively-once delivery and tracing)."""
    schedule = FaultSchedule()
    if faults == "crash":
        schedule = FaultSchedule(seed=7).crash(1.05, "m001", recover_at=2.0)
    config = SimConfig(
        flush_policy=FlushPolicy.every(0.2),
        queue_capacity=100_000,
        kill_kv_on_machine_failure=True,
        **options,
    )
    source = constant_rate(
        "S1", rate_per_s=RATE, duration_s=3.0, key_fn=lambda i: f"k{i % 64}"
    )
    return run_counting(
        source, ClusterSpec.uniform(4, cores=4), config, 6.0, failures=schedule
    )


def recover_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """E6d: the crash-and-recover run against its fault-free twin."""
    runtime, report = recover_run(str(params["faults"]))
    robustness = report.robustness
    return {
        "counted": counted(runtime),
        "recoveries": robustness.recoveries,
        "recovery_broadcasts": report.master_stats["recovery_broadcasts"],
        "rehydrated_slates": robustness.rehydrated_slates,
        "hints_stored": robustness.hints_stored,
        "hints_delivered": robustness.hints_delivered,
        "hints_pending": robustness.hints_pending,
        "lost_failure": report.counters.lost_failure,
        "m001_in_ring": "m001" in runtime._machine_ring.live_members,
    }


def verify_recover(rows: List[Row]) -> List[str]:
    cells = by_param(rows, "faults")
    free, chaos = cells["none"], cells["crash"]
    # Documented loss bound: one flush interval of the dead machine's
    # update share, plus events queued/in-flight at the crash.
    loss_bound = RATE * 0.2 + chaos["lost_failure"] + 64
    return failed(
        (chaos["recoveries"] == 1, "the crashed machine did not recover once"),
        (chaos["rehydrated_slates"] > 0, "no slate re-hydrated from the kv-store"),
        (chaos["hints_pending"] == 0, "hinted handoff did not drain"),
        (chaos["m001_in_ring"], "the ring did not re-admit m001"),
        (chaos["counted"] >= free["counted"] - loss_bound, "loss exceeds the bound"),
    )


SPECS = (
    e_row(
        "e6_crash_loss",
        "E6a-c (SS4.3, SS2): failures detected on send and broadcast by the "
        "master; events to the dead machine are lost (and logged as lost); the "
        "ring reroutes so the stream flows on; whatever changes were not yet "
        "flushed to the key-value store are lost when an updater fails; "
        "restarting a MapReduce computation from scratch is possible but leaves "
        "the system far behind the stream, where Muppet recovers in one "
        "detection round.",
        crash_cell,
        {"flush_interval": [0.05, 0.2, 0.5, 5.0]},
        verify_crash,
    ),
    e_row(
        "e6d_crash_recover",
        "E6d: a crashed machine can rejoin: recovery broadcast, ring "
        "re-admission, lazy slate re-hydration from the kv-store, hinted-handoff "
        "drain; loss bounded by the flush interval.",
        recover_cell,
        {"faults": ["none", "crash"]},
        verify_recover,
    ),
)
