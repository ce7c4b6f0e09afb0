"""A frame budget for the effectively-once simulator's per-event path.

Wall-clock pairs on a shared two-core machine resolve only large
changes; the number of Python frames the run enters (``sys.setprofile``
"call" events, generator resumes included) per source event is exact
and repeats from run to run. This runs a small batched effectively-once
job — the reputation app on 1,000 seeded tweets under the ``sim_eo``
benchmark's configuration — and pins that count. A change that adds a
call per event, per hop or per batch fails here and prints the new
count; re-record it only when the extra frame is meant.

Frame counts follow the interpreter's bytecode and standard library.
The frames of this package's own code are pinned on any CPython 3.11;
the total, which also counts standard-library frames (``json``,
``dataclasses``, ``copy``) that a patch release may restructure, only on
the exact release it was recorded on.
"""

import gc
import os
import sys

import pytest

import repro
from repro.apps.reputation import build_reputation_app
from repro.cluster import ClusterSpec
from repro.core import slate as slate_module
from repro.sim import SimConfig, SimRuntime
from repro.sim.sources import Source
from repro.slates.manager import FlushPolicy
from repro.workloads.tweets import TweetGenerator

EVENTS = 1_000
RATE = 4_000.0
#: Frames entered by ``SimRuntime.run`` for the whole job (report
#: included), recorded on CPython 3.11.7: all of them, and those whose
#: code lives in this package.
FRAMES = 80_843
PACKAGE_FRAMES = 65_939
RECORDED_ON = (3, 11, 7)
PACKAGE_DIR = os.path.dirname(repro.__file__) + os.sep


def _job() -> SimRuntime:
    events = TweetGenerator(sid="S1", rate_per_s=RATE, num_users=20_000,
                            seed=1).take(EVENTS)
    return SimRuntime(
        build_reputation_app(), ClusterSpec.uniform(4, cores=4),
        SimConfig(delivery_semantics="effectively-once",
                  checkpoint_epoch_s=0.5, batch_max_events=64,
                  batch_linger_s=0.002, flush_policy=FlushPolicy.every(0.2)),
        [Source("S1", iter(events))])


@pytest.mark.skipif(sys.version_info[:2] != RECORDED_ON[:2],
                    reason="the budget was recorded on CPython 3.11")
def test_effectively_once_frames_per_event(monkeypatch):
    horizon = EVENTS / RATE + 1.0
    _job().run(horizon)  # whatever imports lazily does so now
    # The one process-wide memo on the path starts cold, whatever ran
    # before this test.
    monkeypatch.setattr(slate_module, "_KEY_COSTS", {})
    runtime = _job()
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
    assert package_frames == PACKAGE_FRAMES, (
        f"{package_frames} package frames "
        f"({package_frames / EVENTS:.3f} per source event), "
        f"budget {PACKAGE_FRAMES} ({PACKAGE_FRAMES / EVENTS:.3f})")
    if sys.version_info[:3] == RECORDED_ON:
        assert frames == FRAMES, (
            f"{frames} frames ({frames / EVENTS:.3f} per source event), "
            f"budget {FRAMES} ({FRAMES / EVENTS:.3f})")
