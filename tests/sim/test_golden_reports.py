"""Golden reports: one feature matrix pinned against the exact engine.

``golden_reports.json`` was recorded at the last commit that still had
the exact stepper (``SimRuntime``'s inject → send → deliver → try_start
→ execute → finish methods, before they were replaced by the handlers
compiled once at construction). Each row is one feature configuration;
it pins the SHA-256 of ``counter_report()``, the DES step count, the
SHA-256 of the final slates and — for traced rows — the span count, the
first and last span and the SHA-256 of the whole span list. The single
compiled path must reproduce every row, so a feature flag that drifts
from what the exact engine did shows up as a named row, not as a
statistical wobble.

Re-record (only when an intended behaviour change lands, never to make
a refactor pass)::

    PYTHONPATH=src python -m tests.sim.test_golden_reports --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.scenarios import (build_e24_diurnal_app,
                                      e22_overload_run, e24_migration_run)
from repro.cluster import ClusterSpec
from repro.core import Application, Updater
from repro.elastic import AutoscalerConfig, MigrationConfig
from repro.faults import FaultSchedule
from repro.muppet.queues import OverflowPolicy
from repro.sim import ENGINE_MUPPET1, SimConfig, SimRuntime, constant_rate
from repro.sim.sources import Source, spiky_rate
from repro.slates.manager import FlushPolicy
from tests.conftest import (EchoMapper, build_count_app, build_two_stage_app,
                            make_events)

GOLDEN_PATH = Path(__file__).with_name("golden_reports.json")


class CountSum(Updater):
    def init_slate(self, key):
        return {"count": 0, "total": 0}

    def update(self, ctx, event, slate):
        slate["count"] += 1
        slate["total"] += event.value or 0


class Windowed(Updater):
    """Sets one timer per key on the first event."""

    def init_slate(self, key):
        return {"count": 0, "fired": 0}

    def update(self, ctx, event, slate):
        if slate["count"] == 0:
            ctx.set_timer(event.ts + 0.5)
        slate["count"] += 1

    def on_timer(self, ctx, key, slate, payload=None):
        slate["fired"] += 1


def chain_app() -> Application:
    """S1 -> M1 -> S2 -> M2 -> S3 -> U1: the E1 pipeline shape."""
    app = Application("golden-chain")
    app.add_stream("S1", external=True)
    app.add_stream("S2")
    app.add_stream("S3")
    app.add_mapper("M1", EchoMapper, subscribes=["S1"], publishes=["S2"],
                   config={"output_sid": "S2"})
    app.add_mapper("M2", EchoMapper, subscribes=["S2"], publishes=["S3"],
                   config={"output_sid": "S3"})
    app.add_updater("U1", CountSum, subscribes=["S3"])
    return app.validate()


class Expiring(Windowed):
    """Slates expire after 1 s idle, so keys re-initialize (and re-arm
    their timer) when traffic returns."""

    slate_ttl = 1.0


def windowed_app(updater=Windowed) -> Application:
    app = Application("golden-windowed")
    app.add_stream("S1", external=True)
    app.add_updater("U1", updater, subscribes=["S1"])
    return app.validate()


def _trace(n, keys, spacing):
    return [Source("S1", iter(make_events(n, keys=keys, spacing=spacing)))]


def _steady(rate=1500.0, duration=2.0, keys=32):
    return [constant_rate("S1", rate_per_s=rate, duration_s=duration,
                          key_fn=lambda i: f"k{i % keys}")]


def _crash():
    return FaultSchedule(seed=7).crash(0.55, "m001", recover_at=1.4)


def _run(app, config, sources, horizon, failures=(), machines=4, cores=4,
         updaters=("U1",)):
    runtime = SimRuntime(app, ClusterSpec.uniform(machines, cores=cores),
                         config, sources, failures=failures)
    return runtime, runtime.run(horizon), updaters


# -- the matrix ------------------------------------------------------------------
def muppet2_dense():
    # 8 keys at 50k ev/s: hot enough for spills and slate contention.
    return _run(chain_app(), SimConfig(), _trace(4_000, 8, 0.00002), 6.0)


def muppet2_quiescent_gaps():
    return _run(chain_app(), SimConfig(), _trace(200, 8, 0.05), 12.0)


def muppet2_single_choice():
    return _run(chain_app(), SimConfig(two_choice=False),
                _trace(2_000, 16, 0.0002), 5.0)


def muppet2_write_through_sinks():
    return _run(build_two_stage_app(),
                SimConfig(flush_policy=FlushPolicy.write_through(),
                          latency_sinks={"U2"}, max_slate_bytes=4096,
                          timeline=True, threads_per_machine=1),
                _trace(1_500, 24, 0.0005), 4.0, updaters=("U1", "U2"))


def muppet1_workers_per_function():
    # 5 worker processes on 2 cores: the context-switch charge applies.
    return _run(build_count_app(),
                SimConfig(engine=ENGINE_MUPPET1,
                          workers_per_function={"M1": 3, "U1": 2}),
                _trace(1_500, 32, 0.0005), 4.0, machines=3, cores=2)


def muppet1_crash_recover():
    return _run(build_count_app(),
                SimConfig(engine=ENGINE_MUPPET1, queue_capacity=100_000,
                          workers_per_function_per_machine=2),
                _steady(), 4.0, failures=_crash())


def trace_on_chaos():
    return _run(build_count_app(),
                SimConfig(flush_policy=FlushPolicy.every(0.2),
                          queue_capacity=100_000,
                          kill_kv_on_machine_failure=True,
                          trace=True, trace_capacity=262_144,
                          timeline=True),
                _steady(), 4.0, failures=_crash())


def at_least_once_crash():
    return _run(build_count_app(),
                SimConfig(delivery_semantics="at-least-once",
                          replay_horizon_s=0.5, queue_capacity=100_000),
                _steady(), 4.0, failures=_crash())


def effectively_once_batching_crash():
    return _run(build_count_app(),
                SimConfig(delivery_semantics="effectively-once",
                          checkpoint_epoch_s=0.5, batch_max_events=16,
                          batch_linger_s=0.002, queue_capacity=100_000,
                          flush_policy=FlushPolicy.every(0.2),
                          kill_kv_on_machine_failure=True),
                _steady(), 5.0, failures=_crash())


def effectively_once_two_stage_traced():
    return _run(build_two_stage_app(),
                SimConfig(delivery_semantics="effectively-once",
                          checkpoint_epoch_s=0.5, queue_capacity=100_000,
                          flush_policy=FlushPolicy.every(0.2),
                          trace=True, trace_capacity=262_144),
                _steady(rate=800.0), 5.0, failures=_crash(),
                updaters=("U1", "U2"))


def batching_only():
    return _run(chain_app(),
                SimConfig(batch_max_events=64, batch_linger_s=0.005),
                _trace(3_000, 64, 0.0002), 5.0)


def shedding_e22_thin():
    runtime, report = e22_overload_run("thin", 5.0, duration_s=1.5)
    return runtime, report, ("U1", "U_OVF")


def shedding_e22_thin_10x():
    # Past what thinning absorbs: proactive diversion and the source
    # throttle tier engage too.
    runtime, report = e22_overload_run("thin", 10.0, duration_s=1.0)
    return runtime, report, ("U1", "U_OVF")


def shedding_e22_thin_traced():
    runtime, report = e22_overload_run("thin", 5.0, duration_s=1.0,
                                       trace=True)
    return runtime, report, ("U1", "U_OVF")


def overflow_throttle():
    runtime, report = e22_overload_run("throttle", 3.0, duration_s=1.0)
    return runtime, report, ("U1", "U_OVF")


def overflow_divert():
    runtime, report = e22_overload_run("divert", 5.0, duration_s=1.0)
    return runtime, report, ("U1", "U_OVF")


def overflow_drop_traced():
    runtime, report = e22_overload_run("drop", 5.0, duration_s=1.0,
                                       trace=True)
    return runtime, report, ("U1", "U_OVF")


def elastic_autoscale_migration():
    # The E24 diurnal shape at smoke scale: a surge that grows the
    # cluster through serialized live migrations, then a calm tail.
    config = SimConfig(
        flush_policy=FlushPolicy.every(0.2), queue_capacity=2_000,
        delivery_semantics="effectively-once",
        autoscale=AutoscalerConfig(
            min_machines=2, max_machines=8, check_period_s=0.25,
            scale_up_queue=0.5, scale_down_queue=0.1, cooldown_s=0.5,
            hold_s=1.0, grow_step=2, shrink_step=2, cores=1),
        migration=MigrationConfig())
    source = spiky_rate("S1", [(250.0, 1.0), (1400.0, 4.0), (250.0, 6.0)],
                        key_fn=lambda i: f"k{i % 64}")
    return _run(build_e24_diurnal_app(), config, [source], 20.0,
                machines=2, cores=1)


def elastic_migration_retire_traced():
    return _migration("retire")


def _migration(kind):
    runtime = e24_migration_run(kind=kind, rate_per_s=1000.0,
                                duration_s=2.0)
    # e24_migration_run drives run() itself; rebuild the report from the
    # finished runtime (pure read of the same state).
    return runtime, runtime._report(8.0), ("U1",)


def elastic_migration_join_traced():
    return _migration("join")


def legacy_join_and_retire():
    runtime = SimRuntime(build_count_app(), ClusterSpec.uniform(3, cores=4),
                         SimConfig(), _trace(600, 12, 0.002))
    runtime.schedule_add_machine(0.4, "m900", cores=4)
    runtime.schedule_remove_machine(0.9, "m001")
    return runtime, runtime.run(4.0), ("U1",)


def timers_one_per_key():
    return _run(windowed_app(), SimConfig(), _trace(40, 10, 0.05), 6.0)


def timers_and_ttl():
    # Two bursts 3 s apart: every slate expires in between.
    events = make_events(60, keys=10, spacing=0.01)
    events += [e._replace(ts=e.ts + 3.0) for e in events]
    return _run(windowed_app(Expiring), SimConfig(),
                [Source("S1", iter(events))], 9.0)


def crash_in_quiescent_gap():
    # One burst, then nothing: the crash at t=2.0 sits inside a stretch
    # the trampoline is advancing inline.
    chaos = FaultSchedule(seed=3).crash(2.0, "m002", recover_at=3.0)
    return _run(build_count_app(), SimConfig(), _trace(60, 6, 0.001), 5.0,
                failures=chaos)


def join_in_quiescent_gap():
    runtime = SimRuntime(build_count_app(), ClusterSpec.uniform(3, cores=4),
                         SimConfig(), _trace(60, 12, 0.001))
    runtime.schedule_add_machine(1.5, "m900", cores=4)
    return runtime, runtime.run(4.0), ("U1",)


def gray_failures():
    chaos = (FaultSchedule(seed=5)
             .slow(0.3, "m002", until=1.2, cpu_factor=3.0, net_factor=2.0)
             .drop(0.5, until=0.9, probability=0.2)
             .delay(0.2, until=1.5, extra_s=0.003, jitter_s=0.002,
                    probability=0.5)
             .partition(1.0, ["m000"], until=1.3)
             .kv_outage(0.6, "m003", until=1.1))
    return _run(build_count_app(), SimConfig(queue_capacity=100_000),
                _steady(), 4.0, failures=chaos)


def small_queue_drop():
    return _run(build_count_app(),
                SimConfig(queue_capacity=4, overflow=OverflowPolicy.drop()),
                _steady(rate=20_000.0, duration=0.3, keys=3), 3.0,
                machines=2, cores=1)


SCENARIOS = {fn.__name__: fn for fn in (
    muppet2_dense, muppet2_quiescent_gaps, muppet2_single_choice,
    muppet2_write_through_sinks,
    muppet1_workers_per_function, muppet1_crash_recover, trace_on_chaos,
    at_least_once_crash, effectively_once_batching_crash,
    effectively_once_two_stage_traced, batching_only, shedding_e22_thin,
    shedding_e22_thin_10x, shedding_e22_thin_traced, overflow_throttle,
    overflow_divert, overflow_drop_traced, elastic_autoscale_migration,
    elastic_migration_retire_traced, elastic_migration_join_traced,
    legacy_join_and_retire, timers_one_per_key, timers_and_ttl,
    crash_in_quiescent_gap, join_in_quiescent_gap, gray_failures,
    small_queue_drop)}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def row_of(runtime, report, updaters=("U1",)) -> dict:
    """Everything a golden row pins, measured on a finished run."""
    slates = {u: runtime.slates_of(u) for u in updaters}
    row = {
        "report_sha256": _sha(report.counter_report()),
        "steps": report.steps,
        "slates_sha256": _sha(json.dumps(slates, sort_keys=True)),
    }
    if runtime.tracer is not None:
        spans = [json.dumps(span, sort_keys=True, default=repr)
                 for span in runtime.tracer.spans()]
        row["spans"] = len(spans)
        row["first_span"] = spans[0]
        row["last_span"] = spans[-1]
        row["spans_sha256"] = _sha("\n".join(spans))
    return row


def measure(name: str) -> dict:
    return row_of(*SCENARIOS[name]())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_single_path_reproduces_exact_engine_row(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert measure(name) == golden[name]


def test_golden_file_covers_the_whole_matrix():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(SCENARIOS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    GOLDEN_PATH.write_text(json.dumps(
        {name: measure(name) for name in sorted(SCENARIOS)},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
