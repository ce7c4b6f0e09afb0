"""The heap-label contract between the engine and the model checker.

``classify_entry`` names a control-plane heap entry after the last
segment of its callable's ``__qualname__`` and ``state_fingerprint``
hashes those names, so the name of every closure the engine puts on the
heap is part of the contract — yet the committed counterexamples only
ever see ``ctl:tick`` and ``ctl:sweep``. This test turns on every
feature that schedules something and pins the whole label vocabulary.
"""

import pytest

from repro.analysis.mc.controlled import classify_entry
from repro.cluster import ClusterSpec
from repro.core import Application, Updater
from repro.elastic import MigrationConfig
from repro.faults import FaultSchedule
from repro.sim import SimConfig, SimRuntime
from repro.sim.des import SchedulerHook
from repro.sim.sources import Source
from repro.slates.manager import FlushPolicy
from tests.conftest import EchoMapper, make_events


class _CountWithTimer(Updater):
    def init_slate(self, key):
        return {"count": 0, "fired": 0}

    def update(self, ctx, event, slate):
        if slate["count"] == 0:
            ctx.set_timer(event.ts + 0.05)
        slate["count"] += 1

    def on_timer(self, ctx, key, slate, payload=None):
        slate["fired"] += 1


def _app() -> Application:
    app = Application("heap-labels")
    app.add_stream("S1", external=True)
    app.add_stream("S2")
    app.add_mapper("M1", EchoMapper, subscribes=["S1"], publishes=["S2"])
    app.add_updater("U1", _CountWithTimer, subscribes=["S2"])
    return app.validate()


class _LabelRecorder(SchedulerHook):
    """Default schedule (always choice 0), every executed label kept."""

    def __init__(self, runtime):
        self.runtime = runtime
        self.kinds = set()

    def executed(self, sim, entry):
        label, _ = classify_entry(self.runtime, entry)
        head, _, rest = label.partition(":")
        self.kinds.add(f"ctl:{rest}" if head == "ctl" else head)


#: Every name a heap entry may carry, whichever membership path runs.
EXPECTED = {
    "ctl:step", "ctl:tick", "ctl:sweep", "ctl:kill", "ctl:revive",
    "ctl:broadcast", "ctl:down", "ctl:up", "ctl:join", "ctl:leave",
    "ctl:deliver_all", "ctl:<lambda>", "deliver", "deliver-timer", "finish",
    "timer",
}


@pytest.mark.parametrize("migration", [None, MigrationConfig()],
                         ids=["legacy", "migration"])
def test_every_scheduled_closure_keeps_its_label(migration):
    config = SimConfig(
        delivery_semantics="effectively-once", checkpoint_epoch_s=0.25,
        batch_max_events=4, batch_linger_s=0.002, heartbeat_s=0.2,
        flush_policy=FlushPolicy.every(0.1), queue_capacity=10_000,
        migration=migration)
    chaos = (FaultSchedule(seed=1)
             .crash(0.30, "m001", recover_at=0.60)
             .kv_outage(0.20, "m002", until=0.40))
    runtime = SimRuntime(
        _app(), ClusterSpec.uniform(3, cores=2), config,
        [Source("S1", iter(make_events(400, keys=16, spacing=0.002)))],
        failures=chaos)
    runtime.schedule_add_machine(0.15, "m900", cores=2)
    runtime.schedule_remove_machine(0.70, "m000")
    recorder = _LabelRecorder(runtime)
    runtime.sim.hook = recorder
    runtime.run(2.0)
    assert recorder.kinds == EXPECTED
