"""The ``golden_features`` campaign: one feature matrix pinned against the
exact engine.

The rows were recorded at the last commit that still had the exact
stepper (``SimRuntime``'s inject → send → deliver → try_start →
execute → finish methods, before they were replaced by the handlers
compiled once at construction). Each row is one feature configuration;
it pins the SHA-256 of ``counter_report()``, the DES step count, the
SHA-256 of the final slates and — for traced rows — the span count, the
first and last span and the SHA-256 of the whole span list. The single
compiled path must reproduce every row, so a feature flag that drifts
from what the exact engine did shows up as a named row, not as a
statistical wobble. Re-record only when an intended behaviour change
lands, never to make a refactor pass.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple, Type, Union

from repro.apps.counting import Count, Echo, count_app, count_events
from repro.campaign.claims import Metrics
from repro.campaign.e22_shedding import e22_overload_run
from repro.campaign.scenarios import build_e24_diurnal_app, e24_migration_run
from repro.campaign.spec import CampaignSpec
from repro.cluster import ClusterSpec
from repro.core.application import Application
from repro.core.event import Event
from repro.core.operators import Context, Updater
from repro.core.slate import Slate
from repro.elastic import AutoscalerConfig, MigrationConfig
from repro.faults import FaultSchedule
from repro.muppet.queues import OverflowPolicy
from repro.sim import ENGINE_MUPPET1, SimConfig, SimRuntime, constant_rate
from repro.sim.report import SimReport
from repro.sim.sources import Source, spiky_rate
from repro.slates.manager import FlushPolicy

#: A finished run and the updaters whose slates its row pins.
Run = Tuple[SimRuntime, SimReport, Sequence[str]]
_E22_UPDATERS = ("U1", "U_OVF")


class CountSum(Updater):
    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"count": 0, "total": 0}

    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        slate["count"] += 1
        slate["total"] += event.value or 0


class Forward(Updater):
    """Counts and forwards each event to ``S3``."""

    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"count": 0}

    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        slate["count"] += 1
        ctx.publish("S3", event.key, slate["count"])


class Windowed(Updater):
    """Sets one timer per key on the first event."""

    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"count": 0, "fired": 0}

    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        if slate["count"] == 0:
            ctx.set_timer(event.ts + 0.5)
        slate["count"] += 1

    def on_timer(
        self, ctx: Context, key: str, slate: Slate, payload: Any = None
    ) -> None:
        slate["fired"] += 1


class Expiring(Windowed):
    """Slates expire after 1 s idle, so keys re-initialize (and re-arm
    their timer) when traffic returns."""

    slate_ttl = 1.0


def chain_app() -> Application:
    """S1 -> M1 -> S2 -> M2 -> S3 -> U1: the E1 pipeline shape."""
    return count_app("golden-chain", hops=2, updater=CountSum)


def two_stage_app() -> Application:
    """S1 -> M1 -> S2 -> U1(forward) -> S3 -> U2(count)."""
    app = Application("golden-two-stage")
    app.add_stream("S1", external=True)
    app.add_stream("S2")
    app.add_stream("S3")
    app.add_mapper(
        "M1", Echo, subscribes=["S1"], publishes=["S2"], config={"output_sid": "S2"}
    )
    app.add_updater("U1", Forward, subscribes=["S2"], publishes=["S3"])
    app.add_updater("U2", Count, subscribes=["S3"])
    return app.validate()


def windowed_app(updater: Type[Updater] = Windowed) -> Application:
    return count_app("golden-windowed", hops=0, updater=updater)


def _trace(n: int, keys: int, spacing: float) -> List[Source]:
    return [Source("S1", iter(count_events(n, keys, spacing)))]


def _steady(
    rate: float = 1500.0, duration: float = 2.0, keys: int = 32
) -> List[Source]:
    key_fn = lambda i: f"k{i % keys}"
    return [constant_rate("S1", rate_per_s=rate, duration_s=duration, key_fn=key_fn)]


def _crash() -> FaultSchedule:
    return FaultSchedule(seed=7).crash(0.55, "m001", recover_at=1.4)


def _run(
    app: Application,
    config: SimConfig,
    sources: List[Source],
    horizon: float,
    failures: Union[FaultSchedule, Sequence[Tuple[float, str]]] = (),
    machines: int = 4,
    cores: int = 4,
    updaters: Sequence[str] = ("U1",),
) -> Run:
    runtime = SimRuntime(
        app, ClusterSpec.uniform(machines, cores=cores), config, sources, failures
    )
    return runtime, runtime.run(horizon), updaters


# -- the matrix ----------------------------------------------------------------
def muppet2_dense() -> Run:
    # 8 keys at 50k ev/s: hot enough for spills and slate contention.
    return _run(chain_app(), SimConfig(), _trace(4_000, 8, 0.00002), 6.0)


def muppet2_quiescent_gaps() -> Run:
    return _run(chain_app(), SimConfig(), _trace(200, 8, 0.05), 12.0)


def muppet2_single_choice() -> Run:
    config = SimConfig(two_choice=False)
    return _run(chain_app(), config, _trace(2_000, 16, 0.0002), 5.0)


def muppet2_write_through_sinks() -> Run:
    config = SimConfig(
        flush_policy=FlushPolicy.write_through(),
        latency_sinks={"U2"},
        max_slate_bytes=4096,
        timeline=True,
        threads_per_machine=1,
    )
    sources = _trace(1_500, 24, 0.0005)
    return _run(two_stage_app(), config, sources, 4.0, updaters=("U1", "U2"))


def muppet1_workers_per_function() -> Run:
    # 5 worker processes on 2 cores: the context-switch charge applies.
    config = SimConfig(engine=ENGINE_MUPPET1, workers_per_function={"M1": 3, "U1": 2})
    sources = _trace(1_500, 32, 0.0005)
    return _run(count_app("golden-count"), config, sources, 4.0, machines=3, cores=2)


def muppet1_crash_recover() -> Run:
    config = SimConfig(
        engine=ENGINE_MUPPET1,
        queue_capacity=100_000,
        workers_per_function_per_machine=2,
    )
    return _run(count_app("golden-count"), config, _steady(), 4.0, _crash())


def trace_on_chaos() -> Run:
    config = SimConfig(
        flush_policy=FlushPolicy.every(0.2),
        queue_capacity=100_000,
        kill_kv_on_machine_failure=True,
        trace=True,
        trace_capacity=262_144,
        timeline=True,
    )
    return _run(count_app("golden-count"), config, _steady(), 4.0, _crash())


def at_least_once_crash() -> Run:
    config = SimConfig(
        delivery_semantics="at-least-once", replay_horizon_s=0.5, queue_capacity=100_000
    )
    return _run(count_app("golden-count"), config, _steady(), 4.0, _crash())


def effectively_once_batching_crash() -> Run:
    config = SimConfig(
        delivery_semantics="effectively-once",
        checkpoint_epoch_s=0.5,
        batch_max_events=16,
        batch_linger_s=0.002,
        queue_capacity=100_000,
        flush_policy=FlushPolicy.every(0.2),
        kill_kv_on_machine_failure=True,
    )
    return _run(count_app("golden-count"), config, _steady(), 5.0, _crash())


def effectively_once_two_stage_traced() -> Run:
    config = SimConfig(
        delivery_semantics="effectively-once",
        checkpoint_epoch_s=0.5,
        queue_capacity=100_000,
        flush_policy=FlushPolicy.every(0.2),
        trace=True,
        trace_capacity=262_144,
    )
    sources = _steady(rate=800.0)
    return _run(two_stage_app(), config, sources, 5.0, _crash(), updaters=("U1", "U2"))


def batching_only() -> Run:
    config = SimConfig(batch_max_events=64, batch_linger_s=0.005)
    return _run(chain_app(), config, _trace(3_000, 64, 0.0002), 5.0)


def shedding_e22_thin() -> Run:
    return (*e22_overload_run("thin", 5.0, duration_s=1.5), _E22_UPDATERS)


def shedding_e22_thin_10x() -> Run:
    # Past what thinning absorbs: proactive diversion and the source
    # throttle tier engage too.
    return (*e22_overload_run("thin", 10.0, duration_s=1.0), _E22_UPDATERS)


def shedding_e22_thin_traced() -> Run:
    return (*e22_overload_run("thin", 5.0, duration_s=1.0, trace=True), _E22_UPDATERS)


def overflow_throttle() -> Run:
    return (*e22_overload_run("throttle", 3.0, duration_s=1.0), _E22_UPDATERS)


def overflow_divert() -> Run:
    return (*e22_overload_run("divert", 5.0, duration_s=1.0), _E22_UPDATERS)


def overflow_drop_traced() -> Run:
    return (*e22_overload_run("drop", 5.0, duration_s=1.0, trace=True), _E22_UPDATERS)


def elastic_autoscale_migration() -> Run:
    # The E24 diurnal shape at smoke scale: a surge that grows the
    # cluster through serialized live migrations, then a calm tail.
    config = SimConfig(
        flush_policy=FlushPolicy.every(0.2),
        queue_capacity=2_000,
        delivery_semantics="effectively-once",
        autoscale=AutoscalerConfig(max_machines=8),
        migration=MigrationConfig(),
    )
    source = spiky_rate(
        "S1", [(250.0, 1.0), (1400.0, 4.0), (250.0, 6.0)], key_fn=lambda i: f"k{i % 64}"
    )
    app = build_e24_diurnal_app()
    return _run(app, config, [source], 20.0, machines=2, cores=1)


def elastic_migration_retire_traced() -> Run:
    return (*e24_migration_run("retire", rate_per_s=1000.0, duration_s=2.0), ("U1",))


def elastic_migration_join_traced() -> Run:
    return (*e24_migration_run("join", rate_per_s=1000.0, duration_s=2.0), ("U1",))


def legacy_join_and_retire() -> Run:
    cluster = ClusterSpec.uniform(3, cores=4)
    sources = _trace(600, 12, 0.002)
    runtime = SimRuntime(count_app("golden-count"), cluster, SimConfig(), sources)
    runtime.schedule_add_machine(0.4, "m900", cores=4)
    runtime.schedule_remove_machine(0.9, "m001")
    return runtime, runtime.run(4.0), ("U1",)


def timers_one_per_key() -> Run:
    return _run(windowed_app(), SimConfig(), _trace(40, 10, 0.05), 6.0)


def timers_and_ttl() -> Run:
    # Two bursts 3 s apart: every slate expires in between.
    events = count_events(60, keys=10, spacing=0.01)
    events += [event._replace(ts=event.ts + 3.0) for event in events]
    sources = [Source("S1", iter(events))]
    return _run(windowed_app(Expiring), SimConfig(), sources, 9.0)


def crash_in_quiescent_gap() -> Run:
    # One burst, then nothing: the crash at t=2.0 sits inside a stretch
    # the trampoline is advancing inline.
    chaos = FaultSchedule(seed=3).crash(2.0, "m002", recover_at=3.0)
    sources = _trace(60, 6, 0.001)
    return _run(count_app("golden-count"), SimConfig(), sources, 5.0, chaos)


def join_in_quiescent_gap() -> Run:
    cluster = ClusterSpec.uniform(3, cores=4)
    sources = _trace(60, 12, 0.001)
    runtime = SimRuntime(count_app("golden-count"), cluster, SimConfig(), sources)
    runtime.schedule_add_machine(1.5, "m900", cores=4)
    return runtime, runtime.run(4.0), ("U1",)


def gray_failures() -> Run:
    chaos = (
        FaultSchedule(seed=5)
        .slow(0.3, "m002", until=1.2, cpu_factor=3.0, net_factor=2.0)
        .drop(0.5, until=0.9, probability=0.2)
        .delay(0.2, until=1.5, extra_s=0.003, jitter_s=0.002, probability=0.5)
        .partition(1.0, ["m000"], until=1.3)
        .kv_outage(0.6, "m003", until=1.1)
    )
    config = SimConfig(queue_capacity=100_000)
    return _run(count_app("golden-count"), config, _steady(), 4.0, chaos)


def small_queue_drop() -> Run:
    config = SimConfig(queue_capacity=4, overflow=OverflowPolicy.drop())
    sources = _steady(rate=20_000.0, duration=0.3, keys=3)
    return _run(count_app("golden-count"), config, sources, 3.0, machines=2, cores=1)


SCENARIOS: Dict[str, Callable[[], Run]] = {
    fn.__name__: fn
    for fn in (
        muppet2_dense,
        muppet2_quiescent_gaps,
        muppet2_single_choice,
        muppet2_write_through_sinks,
        muppet1_workers_per_function,
        muppet1_crash_recover,
        trace_on_chaos,
        at_least_once_crash,
        effectively_once_batching_crash,
        effectively_once_two_stage_traced,
        batching_only,
        shedding_e22_thin,
        shedding_e22_thin_10x,
        shedding_e22_thin_traced,
        overflow_throttle,
        overflow_divert,
        overflow_drop_traced,
        elastic_autoscale_migration,
        elastic_migration_retire_traced,
        elastic_migration_join_traced,
        legacy_join_and_retire,
        timers_one_per_key,
        timers_and_ttl,
        crash_in_quiescent_gap,
        join_in_quiescent_gap,
        gray_failures,
        small_queue_drop,
    )
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def row_of(runtime: SimRuntime, report: SimReport, updaters: Sequence[str]) -> Metrics:
    """Everything a golden row pins, measured on a finished run."""
    slates = {updater: runtime.slates_of(updater) for updater in updaters}
    row: Metrics = {
        "report_sha256": _sha(report.counter_report()),
        "steps": report.steps,
        "slates_sha256": _sha(json.dumps(slates, sort_keys=True)),
    }
    if runtime.tracer is not None:
        spans = [
            json.dumps(span, sort_keys=True, default=repr)
            for span in runtime.tracer.spans()
        ]
        row["spans"] = len(spans)
        row["first_span"] = spans[0]
        row["last_span"] = spans[-1]
        row["spans_sha256"] = _sha("\n".join(spans))
    return row


def golden_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """One row of the matrix, run and measured."""
    return row_of(*SCENARIOS[str(params["row"])]())


SPECS = (
    CampaignSpec(
        name="golden_features",
        description=(
            "E23: 27 feature configurations of the simulator (engines, "
            "delivery modes, batching, shedding, elasticity, timers, faults), "
            "each pinned by its counter_report(), step count, slates and spans "
            "as recorded at the last commit with the exact stepper; the one "
            "compiled per-event path must reproduce every row."
        ),
        scenario="repro.campaign.golden:golden_cell",
        grid={"row": list(SCENARIOS)},
    ),
)
