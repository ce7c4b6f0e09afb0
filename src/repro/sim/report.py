"""What a simulated run reports, and how it is read off the engine.

:func:`build_report` assembles a :class:`SimReport` from a finished (or
paused) :class:`~repro.sim.runtime.SimRuntime`; :func:`register_metrics`
attaches the engine's live stats objects to its
:class:`~repro.obs.MetricsRegistry`. Everything here only reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.core.event import EventCounter
from repro.faults.driver import RobustnessCounters
from repro.muppet.replay import ReplayStats
from repro.obs.latency import (LatencyRecorder, LatencySummary,
                               ThroughputReport)
from repro.shedding.controller import SheddingCounters
from repro.sim.config import ENGINE_MUPPET2
from repro.sim.dataplane import DataPlaneCounters

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sim.runtime import SimRuntime, _Machine

#: Resident size of one loaded copy of the application code (MB); the
#: Muppet 1.0 memory penalty is one copy per worker process.
OPERATOR_CODE_MB = 64.0


@dataclass
class SimReport:
    """Everything a benchmark needs from one simulated run."""

    engine: str
    duration_s: float
    counters: EventCounter
    latency: Optional[LatencySummary]
    latency_by_updater: Dict[str, LatencySummary]
    throughput: ThroughputReport
    dispatch_stats: Dict[str, Any]
    master_stats: Dict[str, int]
    queue_peak_depth: int
    slate_contention_events: int
    max_workers_per_slate: int
    failure_detection_s: Optional[float]
    throttle_paused_s: float
    memory_mb_per_machine: float
    kv_stats: Dict[str, Dict[str, int]]
    device_stats: Dict[str, Dict[str, float]]
    steps: int
    robustness: RobustnessCounters = field(
        default_factory=RobustnessCounters)
    dataplane: DataPlaneCounters = field(
        default_factory=DataPlaneCounters)
    #: Replay-journal accounting (all zero when replay is off).
    replay: ReplayStats = field(default_factory=ReplayStats)
    #: Overload-control accounting (all zero when shedding is off).
    shedding: SheddingCounters = field(default_factory=SheddingCounters)
    #: Full :class:`repro.obs.MetricsRegistry` family snapshot taken at
    #: report time: the six counter_report families plus the new
    #: observability families (queues, slates, kv, latency histograms).
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Timeline samples (``SimConfig.timeline``); None when disabled.
    timeline_data: Optional[Dict[str, Any]] = None

    #: counter_report's families, in their historical print order.
    REPORT_FAMILIES = ("counters", "robustness", "master", "dispatch",
                       "dataplane", "replay", "overload")

    def events_per_second(self) -> float:
        """Processed updater/mapper deliveries per simulated second."""
        return self.throughput.events_per_second

    def timeline(self) -> Dict[str, Any]:
        """Per-machine and per-updater timeseries sampled during the run.

        Shape: ``{"machines": {name: [{"t", "queue_depth", "queue_peak",
        "dirty_slates", "alive"}, ...]}, "updaters": {name: [{"t",
        "count", "mean", "p50", "p95", "p99", "max"}, ...]}}`` — empty
        series when ``SimConfig.timeline`` was off.
        """
        if self.timeline_data is None:
            return {"machines": {}, "updaters": {}}
        return self.timeline_data

    def counter_report(self) -> str:
        """A deterministic, line-oriented dump of every counter.

        Two runs of the same seeded :class:`~repro.faults.FaultSchedule`
        over the same workload must produce *byte-identical* output from
        this method — the chaos-determinism contract tests assert on it.
        Floats are rendered with ``repr`` (shortest round-trip form), so
        any numeric drift shows up as a diff.

        The body is generated from the :class:`~repro.obs.
        MetricsRegistry` family snapshot captured at report time; the
        families and their keys mirror the pre-registry sections
        exactly, so the output is byte-identical across the refactor.
        Only the six historical families print — the registry's new
        families (queues, slates, kv, latency) are read via
        :attr:`metrics` instead, so existing seeded gates stay stable.
        """
        lines = [f"engine={self.engine}",
                 f"duration_s={self.duration_s!r}",
                 f"steps={self.steps}"]
        for family in self.REPORT_FAMILIES:
            for name, value in sorted(self.metrics.get(family, {}).items()):
                lines.append(f"{family}.{name}={value!r}")
        return "\n".join(lines)


# -- registry views ------------------------------------------------------------
def register_metrics(rt: "SimRuntime") -> None:
    """Attach every stats object to the registry as a live view.

    The first seven families mirror ``SimReport.counter_report``'s
    historical sections exactly (same keys, same values), which is
    what keeps that report byte-identical across the registry
    refactor; the remaining families (queues, slates, kv, latency)
    are new observability surface read via ``SimReport.metrics`` or
    the CLI ``--metrics-out`` sink.
    """
    reg = rt.metrics
    reg.register_group("counters", rt.counters.snapshot)
    reg.register_group(
        "robustness", lambda: robustness_counters(rt).as_dict())
    reg.register_group("master", rt.master.stats.as_dict)
    reg.register_group("dispatch", lambda: dispatch_stats(rt))
    reg.register_group("dataplane", rt.dataplane.as_dict)
    reg.register_group("replay", lambda: replay_stats(rt).as_dict())
    reg.register_group("overload", rt._overload.stats)
    for machine in rt.machines.values():
        register_machine_probes(rt, machine)
    reg.register_group("kv", lambda: kv_probe(rt))
    if rt._autoscaler is not None or rt._migration is not None:
        # Registered only when the subsystem is on: the family's
        # presence in metrics snapshots must not perturb runs that
        # never asked for elasticity.
        reg.register_group("elastic", rt._elastic.stats)


def register_machine_probes(rt: "SimRuntime", machine: "_Machine") -> None:
    """The ``queues.<machine>`` and ``slates.<machine>`` families."""
    rt.metrics.register_group(f"queues.{machine.name}",
                              _queue_probe(machine))
    rt.metrics.register_group(f"slates.{machine.name}",
                              _slate_probe(rt, machine))


def _queue_probe(machine: "_Machine") -> Callable[[], Dict[str, int]]:
    def probe() -> Dict[str, int]:
        return {
            "depth": sum(len(w.queue) for w in machine.workers),
            "peak": max((w.queue.stats.peak_depth
                         for w in machine.workers), default=0),
            "rejected": sum(w.queue.stats.rejected
                            for w in machine.workers),
        }
    return probe


def _slate_probe(rt: "SimRuntime",
                 machine: "_Machine") -> Callable[[], Dict[str, int]]:
    def probe() -> Dict[str, int]:
        managers = rt._managers_of(machine)
        stats: Dict[str, int] = {
            "dirty": sum(m.cache.dirty_count() for m in managers),
            "resident": sum(len(m.cache) for m in managers),
        }
        for field_name in ("kv_reads", "kv_writes", "batch_flushes",
                           "rehydrated"):
            stats[field_name] = sum(getattr(m.stats, field_name)
                                    for m in managers)
        for field_name in ("hits", "misses", "evictions",
                           "dirty_evictions"):
            stats[f"cache_{field_name}"] = sum(
                m.cache.stats.as_dict()[field_name] for m in managers)
        return stats
    return probe


def kv_probe(rt: "SimRuntime") -> Dict[str, int]:
    """The ``kv`` family: hinted-handoff totals and per-node stats."""
    store = rt.store
    flat: Dict[str, int] = {
        "hints_stored": store.hints_stored,
        "hints_delivered": store.hints_delivered,
        "hints_pending": store.pending_hints(),
    }
    for node_name, stats in store.stats_by_node().items():
        for key, value in stats.items():
            flat[f"{node_name}.{key}"] = value
    for node_name, node in store.nodes.items():
        for key, value in node.observable_state().items():
            flat[f"{node_name}.{key}"] = value
    return flat


def dispatch_stats(rt: "SimRuntime") -> Dict[str, Any]:
    """Cluster-wide dispatcher counters (summed across machines)."""
    dispatch: Dict[str, Any] = {}
    for machine in rt.machines.values():
        if machine.dispatcher is not None:
            for key, value in machine.dispatcher.stats.as_dict().items():
                dispatch[key] = dispatch.get(key, 0) + value
    return dispatch


def replay_stats(rt: "SimRuntime") -> ReplayStats:
    """The journal's accounting (all zero when replay is off)."""
    journal = rt.replay_journal
    return journal.stats if journal is not None else ReplayStats()


def robustness_counters(rt: "SimRuntime") -> RobustnessCounters:
    """Aggregate recovery/retry/chaos accounting for the report."""
    rc = RobustnessCounters(recoveries=rt._faults.recoveries)
    for machine in rt.machines.values():
        for mgr in rt._managers_of(machine):
            rc.rehydrated_slates += mgr.stats.rehydrated
            rc.kv_retries += mgr.stats.kv_retries
            rc.kv_backoff_s += mgr.stats.kv_backoff_s
            rc.fail_open_reads += mgr.stats.fail_open_reads
            rc.fail_open_writes += mgr.stats.fail_open_writes
    if rt._injector is not None:
        stats = rt._injector.stats
        rc.gray_slow_s = stats.gray_slow_s
        rc.dropped_injected = stats.dropped_messages
        rc.lost_partition = stats.lost_partition
        rc.delayed_injected = stats.delayed_messages
        rc.injected_delay_s = stats.injected_delay_s
    rc.hints_stored = rt.store.hints_stored
    rc.hints_delivered = rt.store.hints_delivered
    rc.hints_evicted = rt.store.hints_evicted
    rc.hints_pending = rt.store.pending_hints()
    if rt.replay_journal is not None:
        rc.replay_deduped = rt.replay_journal.stats.deduped
    if rt._eo is not None:
        rc.replay_reapplied = rt._eo.reapplied
        rc.epoch_pruned = rt._eo.epoch_pruned
    rc.checkpoint_epochs = rt.master.stats.checkpoint_epochs
    return rc


def memory_mb_per_machine(rt: "SimRuntime") -> float:
    """Average resident MB per machine: code copies + slate caches.

    Muppet 1.0 loads the code once per worker process; 2.0 loads it
    once per machine (Section 4.5's first limitation).
    """
    total = 0.0
    for machine in rt.machines.values():
        if rt.config.engine == ENGINE_MUPPET2:
            total += OPERATOR_CODE_MB
            if machine.central_mgr is not None:
                total += machine.central_mgr.cache.total_bytes() / 1e6
        else:
            total += OPERATOR_CODE_MB * len(machine.workers)
            total += sum(w.mgr.cache.total_bytes()
                         for w in machine.workers) / 1e6
    return total / max(1, len(rt.machines))


def build_report(rt: "SimRuntime", duration_s: float) -> SimReport:
    """Summarize the run so far as a :class:`SimReport`: a snapshot, which
    a later ``run`` of the same runtime leaves as it is."""
    by_updater: Dict[str, LatencySummary] = {}
    for name, recorder in rt.latency.items():  # noqa: MUP003 -- single-threaded DES; operator insertion order is deterministic
        if len(recorder):
            by_updater[name] = recorder.summary()
            recorder.fill_histogram(
                rt.metrics.histogram(f"latency.{name}"))
    # One updater's summary is the run's; several are pooled, in
    # updater order, and sorted once.
    if len(by_updater) > 1:
        pooled = LatencyRecorder()
        for recorder in rt.latency.values():  # noqa: MUP003 -- insertion order as above
            pooled.extend(recorder.samples)
        latency: Optional[LatencySummary] = pooled.summary()
    else:
        latency = next(iter(by_updater.values()), None)
    queue_peak = 0
    for machine in rt.machines.values():  # noqa: MUP003 -- max() is order-independent
        for worker in machine.workers:
            queue_peak = max(queue_peak, worker.queue.stats.peak_depth)
    # Copies of the live counters, which a later run keeps counting
    # into. Slot by slot through builtins: a copy costs no Python frame,
    # so a run's frame count is what it was.
    copies = []
    for live in (rt.counters, rt.dataplane, rt._overload.counters):
        copy = object.__new__(type(live))
        for name in live.__slots__:
            setattr(copy, name, getattr(live, name))
        copies.append(copy)
    counters, dataplane, shedding = copies
    throttle = rt.config.throttle
    return SimReport(
        engine=rt.config.engine,
        duration_s=duration_s,
        counters=counters,
        latency=latency,
        latency_by_updater=by_updater,
        throughput=ThroughputReport(rt.counters.processed, duration_s),
        dispatch_stats=dispatch_stats(rt),
        master_stats=rt.master.stats.as_dict(),
        queue_peak_depth=queue_peak,
        slate_contention_events=rt._contention_events,
        max_workers_per_slate=rt._max_workers_per_slate,
        failure_detection_s=rt._detection_time,
        throttle_paused_s=(throttle.paused_time_s if throttle else 0.0),
        memory_mb_per_machine=memory_mb_per_machine(rt),
        kv_stats=rt.store.stats_by_node(),
        device_stats={name: node.device.stats.as_dict()
                      for name, node in sorted(rt.store.nodes.items())},
        steps=rt.sim.steps,
        robustness=robustness_counters(rt),
        dataplane=dataplane,
        replay=ReplayStats(**replay_stats(rt).as_dict()),
        shedding=shedding,
        metrics=rt.metrics.family_snapshot(),
        timeline_data=(rt._timeline.as_dict()
                       if rt._timeline is not None else None),
    )
