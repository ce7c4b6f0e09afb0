"""A frame budget for the simulator's per-event path.

Wall-clock pairs on a shared two-core machine resolve only large
changes; the number of Python frames the run enters (``sys.setprofile``
"call" events, generator resumes included) per source event is exact
and repeats from run to run. Each row runs one small job in the shape
of a simulator benchmark workload and pins that count:

* ``sim_eo`` — a batched effectively-once job: the reputation app on
  1,000 seeded tweets under the ``sim_eo`` benchmark's configuration;
* ``sim_chain`` — the two-hop count chain on 1,000 events over 200
  keys under ``SimConfig()`` defaults, the ``sim_chain`` benchmark's
  shape.

A change that adds a call per event, per hop or per batch fails here
and prints the new count; re-record it only when the extra frame is
meant.

Frame counts follow the interpreter's bytecode and standard library.
The frames of this package's own code are pinned on any CPython 3.11;
the total, which also counts standard-library frames (``json``,
``dataclasses``, ``copy``) that a patch release may restructure, only on
the exact release it was recorded on.
"""

import gc
import os
import random
import sys
from typing import Callable, NamedTuple

import pytest

import repro
from repro.apps.counting import count_app
from repro.apps.reputation import build_reputation_app
from repro.cluster import ClusterSpec
from repro.core import slate as slate_module
from repro.core.event import Event
from repro.sim import SimConfig, SimRuntime
from repro.sim.sources import Source
from repro.slates.manager import FlushPolicy
from repro.workloads.tweets import TweetGenerator

EVENTS = 1_000
RECORDED_ON = (3, 11, 7)
PACKAGE_DIR = os.path.dirname(repro.__file__) + os.sep


def _eo_job() -> SimRuntime:
    events = TweetGenerator(sid="S1", rate_per_s=4_000.0, num_users=20_000,
                            seed=1).take(EVENTS)
    return SimRuntime(
        build_reputation_app(), ClusterSpec.uniform(4, cores=4),
        SimConfig(delivery_semantics="effectively-once",
                  checkpoint_epoch_s=0.5, batch_max_events=64,
                  batch_linger_s=0.002, flush_policy=FlushPolicy.every(0.2)),
        [Source("S1", iter(events))])


def _chain_job() -> SimRuntime:
    rng = random.Random(1)
    events = [Event("S1", i / 10_000.0, f"k{rng.randrange(200)}", i)
              for i in range(EVENTS)]
    return SimRuntime(count_app("frame-chain", hops=2),
                      ClusterSpec.uniform(4, cores=4), SimConfig(),
                      [Source("S1", iter(events))])


class Budget(NamedTuple):
    job: Callable[[], SimRuntime]
    rate: float
    #: Frames entered by ``SimRuntime.run`` for the whole job (report
    #: included), recorded on CPython 3.11.7: all of them, and those
    #: whose code lives in this package.
    frames: int
    package_frames: int


BUDGETS = {
    "sim_eo": Budget(_eo_job, 4_000.0, frames=80_945, package_frames=66_013),
    "sim_chain": Budget(_chain_job, 10_000.0, frames=41_211,
                        package_frames=39_336),
}


@pytest.mark.skipif(sys.version_info[:2] != RECORDED_ON[:2],
                    reason="the budget was recorded on CPython 3.11")
@pytest.mark.parametrize("workload", sorted(BUDGETS))
def test_frames_per_event(workload, monkeypatch):
    budget = BUDGETS[workload]
    horizon = EVENTS / budget.rate + 1.0
    budget.job().run(horizon)  # whatever imports lazily does so now
    # The one process-wide memo on the path starts cold, whatever ran
    # before this test.
    monkeypatch.setattr(slate_module, "_KEY_COSTS", {})
    runtime = budget.job()
    frames = package_frames = 0

    def count(frame, event, arg):
        nonlocal frames, package_frames
        if event == "call":
            frames += 1
            if frame.f_code.co_filename.startswith(PACKAGE_DIR):
                package_frames += 1

    # Collection stays off throughout, so no collection (and no gc
    # callback a test plugin installed) lands inside the count.
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        report = runtime.run(horizon)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    assert report.counters.processed > 2 * EVENTS  # the job really ran
    assert package_frames == budget.package_frames, (
        f"{package_frames} package frames "
        f"({package_frames / EVENTS:.3f} per source event), "
        f"budget {budget.package_frames} "
        f"({budget.package_frames / EVENTS:.3f})")
    if sys.version_info[:3] == RECORDED_ON:
        assert frames == budget.frames, (
            f"{frames} frames ({frames / EVENTS:.3f} per source event), "
            f"budget {budget.frames} ({budget.frames / EVENTS:.3f})")
