"""A frame budget for the per-event paths of the simulator and the slate
manager.

Wall-clock pairs on a shared two-core machine resolve only large
changes; the number of Python frames the run enters (``sys.setprofile``
"call" events, generator resumes included) per source event or slate
operation is exact and repeats from run to run. Each row runs one small
job in the shape of a benchmark workload and pins that count:

* ``sim_eo`` — a batched effectively-once job: the reputation app on
  1,000 seeded tweets under the ``sim_eo`` benchmark's configuration;
* ``sim_chain`` — the two-hop count chain on 1,000 events over 200
  keys under ``SimConfig()`` defaults, the ``sim_chain`` benchmark's
  shape;
* ``store_churn`` — 1,000 Zipf operations on a ``SlateManager`` over an
  in-memory 3-node store with two replicas, half of them reads and half
  read-modify-writes, each followed by ``flush_due()``: the
  ``store_churn`` benchmark's shape, with a working set ten times the
  cache.

A change that adds a call per event, per hop, per batch or per slate
operation fails here and prints the new count; re-record it only when
the extra frame is meant.

Frame counts follow the interpreter's bytecode and standard library.
The frames of this package's own code are pinned on any CPython 3.11;
the total, which also counts standard-library frames (``json``,
``dataclasses``, ``copy``) that a patch release may restructure, only on
the exact release it was recorded on.
"""

import functools
import gc
import os
import random
import sys
from typing import Any, Callable, NamedTuple

import pytest

import repro
from repro.apps.counting import count_app
from repro.apps.reputation import build_reputation_app
from repro.cluster import ClusterSpec
from repro.core import slate as slate_module
from repro.core.event import Event
from repro.core.operators import Updater
from repro.kvstore.api import ConsistencyLevel
from repro.kvstore.cluster import ReplicatedKVStore
from repro.sim import SimConfig, SimRuntime
from repro.sim.sources import Source
from repro.slates.manager import FlushPolicy, SlateManager
from repro.workloads.tweets import TweetGenerator
from repro.workloads.zipf import ZipfSampler

EVENTS = 1_000
RECORDED_ON = (3, 11, 7)
PACKAGE_DIR = os.path.dirname(repro.__file__) + os.sep


#: A job builds its state and returns the call the budget counts.
Job = Callable[[], Callable[[], Any]]


def _sim_job(build: Callable[[], SimRuntime], rate: float) -> Job:
    return lambda: functools.partial(build().run, EVENTS / rate + 1.0)


def _processed_every_hop(report: Any) -> bool:
    return report.counters.processed > 2 * EVENTS


def _eo_runtime() -> SimRuntime:
    events = TweetGenerator(sid="S1", rate_per_s=4_000.0, num_users=20_000,
                            seed=1).take(EVENTS)
    return SimRuntime(
        build_reputation_app(), ClusterSpec.uniform(4, cores=4),
        SimConfig(delivery_semantics="effectively-once",
                  checkpoint_epoch_s=0.5, batch_max_events=64,
                  batch_linger_s=0.002, flush_policy=FlushPolicy.every(0.2)),
        [Source("S1", iter(events))])


def _chain_runtime() -> SimRuntime:
    rng = random.Random(1)
    events = [Event("S1", i / 10_000.0, f"k{rng.randrange(200)}", i)
              for i in range(EVENTS)]
    return SimRuntime(count_app("frame-chain", hops=2),
                      ClusterSpec.uniform(4, cores=4), SimConfig(),
                      [Source("S1", iter(events))])


class Checkins(Updater):
    def init_slate(self, key):
        return {"checkins": 0, "last_seen_ts": 0.0}

    def update(self, ctx, event, slate):
        raise NotImplementedError("the job mutates slates itself")


def _manager_job() -> Callable[[], SlateManager]:
    now = [0.0]
    clock = lambda: now[0]  # noqa: E731 -- the job-owned clock
    store = ReplicatedKVStore(["kv0", "kv1", "kv2"], replication_factor=2,
                              clock=clock)
    manager = SlateManager(store, cache_capacity=200,
                           flush_policy=FlushPolicy.every(0.05), clock=clock,
                           consistency=ConsistencyLevel.QUORUM)
    updater = Checkins(name="P")
    sampler, rng = ZipfSampler(2_000, 0.9, 1), random.Random(2)
    ops = [(f"user{sampler.sample()}", rng.random() < 0.5)
           for _ in range(EVENTS)]

    def run() -> SlateManager:
        for index, (key, is_update) in enumerate(ops):
            now[0] = ts = index * 1e-4
            slate = manager.get(updater, key)
            if is_update:
                slate["checkins"] += 1
                slate["last_seen_ts"] = ts
                slate.touch(ts)
                manager.note_update(slate)
            manager.flush_due()
        return manager

    return run


def _hit_and_wrote(manager: SlateManager) -> bool:
    return manager.cache.stats.hits > 0 and manager.stats.kv_writes > 0


class Budget(NamedTuple):
    job: Job
    #: Whether the counted call's result shows the job really ran.
    ran: Callable[[Any], bool]
    #: Frames entered by the counted call (a simulator's report
    #: included), recorded on CPython 3.11.7: all of them, and those
    #: whose code lives in this package.
    frames: int
    package_frames: int


BUDGETS = {
    "sim_eo": Budget(_sim_job(_eo_runtime, 4_000.0), _processed_every_hop,
                     frames=78_248, package_frames=63_849),
    "sim_chain": Budget(_sim_job(_chain_runtime, 10_000.0),
                        _processed_every_hop, frames=40_168,
                        package_frames=38_496),
    "store_churn": Budget(_manager_job, _hit_and_wrote, frames=29_626,
                          package_frames=25_143),
}


@pytest.mark.skipif(sys.version_info[:2] != RECORDED_ON[:2],
                    reason="the budget was recorded on CPython 3.11")
@pytest.mark.parametrize("workload", sorted(BUDGETS))
def test_frames_per_event(workload, monkeypatch):
    budget = BUDGETS[workload]
    budget.job()()  # whatever imports lazily does so now
    # The one process-wide memo on the path starts cold, whatever ran
    # before this test.
    monkeypatch.setattr(slate_module, "_KEY_COSTS", {})
    run = budget.job()
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
        result = run()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    assert budget.ran(result)
    assert package_frames == budget.package_frames, (
        f"{package_frames} package frames "
        f"({package_frames / EVENTS:.3f} per source event), "
        f"budget {budget.package_frames} "
        f"({budget.package_frames / EVENTS:.3f})")
    if sys.version_info[:3] == RECORDED_ON:
        assert frames == budget.frames, (
            f"{frames} frames ({frames / EVENTS:.3f} per source event), "
            f"budget {budget.frames} ({budget.frames / EVENTS:.3f})")
