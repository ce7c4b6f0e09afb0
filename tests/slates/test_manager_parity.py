"""SlateManager's per-operation path, held to a recorded trace.

The manager serves a cache hit, marks an update and checks the flush
interval with inlined copies of the cache, slate and clock code it used to
call. Each case below drives a manager with E9's counting clock (every
reading the manager or the driver takes advances virtual time by 1 ms;
the store reads the time without advancing it) and snapshots after every
operation: what it returned, how many clock readings were taken, the cache
stats, LRU order, dirty keys, each resident slate's version, timestamps,
dirty flag and size-cache version, and the manager's and each store node's
counters. ``manager_parity.json`` holds the trace of every case, recorded
from the manager before those copies existed.

Re-record only for a meant behaviour change::

    PYTHONPATH=src python tests/slates/test_manager_parity.py
"""

import dataclasses
import itertools
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.core.operators import Updater
from repro.errors import SlateTooLargeError
from repro.kvstore.cluster import ReplicatedKVStore
from repro.slates.manager import FlushPolicy, SlateManager

TRACE = Path(__file__).with_name("manager_parity.json")


class Count(Updater):
    def init_slate(self, key):
        return {"count": 0}

    def update(self, ctx, event, slate):
        slate["count"] += 1


class Case:
    """One manager, one counting clock, one script of operations."""

    def __init__(self, policy: FlushPolicy, capacity: int = 4,
                 ttl: Optional[float] = None,
                 max_slate_bytes: Optional[int] = None) -> None:
        self.ticks = itertools.count(1)
        self.readings = 0
        self.now = 0.0
        store = ReplicatedKVStore(["n0", "n1", "n2"], replication_factor=2,
                                  clock=lambda: self.now)
        self.manager = SlateManager(store, cache_capacity=capacity,
                                    flush_policy=policy, clock=self.clock,
                                    max_slate_bytes=max_slate_bytes)
        self.updater = Count(name="U1")
        self.updater.slate_ttl = ttl

    def clock(self) -> float:
        self.readings += 1
        self.now = next(self.ticks) * 0.001
        return self.now

    def op(self, name: str, key: str = "") -> Any:
        manager = self.manager
        if name == "flush_due":
            return manager.flush_due()
        slate = manager.get(self.updater, key)
        if name == "update":
            slate["count"] += 1
            slate.touch(self.clock())
            try:
                manager.note_update(slate)
            except SlateTooLargeError:
                return "too large"
        return slate["count"]

    def snapshot(self, result: Any) -> Dict[str, Any]:
        manager = self.manager
        cache = manager.cache
        resident = cache.resident()
        return {
            "result": result,
            "readings": self.readings,
            "cache": cache.stats.as_dict(),
            "resident": [slate_key.key for slate_key in resident],
            "dirty": [slate_key.key for slate_key in manager.dirty_keys()],
            "slates": {slate_key.key: [
                slate.version, slate.created_ts, slate.last_update_ts,
                slate.dirty, slate._size_version]
                for slate_key in resident
                for slate in [cache.peek(slate_key)]},
            "manager": dataclasses.asdict(manager.stats),
            "pending_io_s": manager.pending_io_s,
            "nodes": manager.store.stats_by_node(),
        }


Script = List[Tuple[str, ...]]
UPDATE_ABC: Script = [("update", "a"), ("update", "b"), ("update", "c")]

CASES: Dict[str, Tuple[Dict[str, Any], Script]] = {
    "hit": ({"policy": FlushPolicy.every(1.0)},
            [("get", "a"), ("get", "a"), ("update", "a"), ("get", "a")]),
    "ttl_hit_live": ({"policy": FlushPolicy.every(1.0), "ttl": 1.0},
                     [("update", "a"), ("get", "a"), ("update", "a"),
                      ("get", "a")]),
    "ttl_hit_expired": ({"policy": FlushPolicy.every(1.0), "ttl": 0.002},
                        [("update", "a"), ("get", "b"), ("get", "b"),
                         ("get", "a"), ("get", "a")]),
    "ttl_expired_in_store": (
        {"policy": FlushPolicy.write_through(), "capacity": 1, "ttl": 0.003},
        [("update", "a"), ("get", "b"), ("get", "b"), ("get", "b"),
         ("get", "a")]),
    "miss_from_store": ({"policy": FlushPolicy.write_through(),
                         "capacity": 2},
                        UPDATE_ABC + [("get", "a"), ("get", "b"),
                                      ("get", "c")]),
    "miss_initializes": ({"policy": FlushPolicy.every(1.0)},
                         [("get", "x"), ("get", "y"), ("update", "x")]),
    "mark_uncapped": ({"policy": FlushPolicy.every(1.0)},
                      [("update", "a"), ("update", "a"), ("update", "b")]),
    "mark_capped": ({"policy": FlushPolicy.every(1.0),
                     "max_slate_bytes": 100},
                    [("update", "a"), ("update", "a"), ("update", "b")]),
    "mark_over_cap": ({"policy": FlushPolicy.every(1.0),
                       "max_slate_bytes": 10},
                      [("update", "a"), ("get", "a")]),
    "interval_flush": ({"policy": FlushPolicy.every(0.005)},
                       [("update", "a"), ("flush_due",), ("update", "b"),
                        ("flush_due",), ("update", "a"), ("flush_due",),
                        ("update", "c"), ("flush_due",), ("get", "a"),
                        ("flush_due",), ("flush_due",), ("flush_due",)]),
    "write_through_flush_due": ({"policy": FlushPolicy.write_through()},
                                [("update", "a"), ("flush_due",)]),
    "dirty_eviction": ({"policy": FlushPolicy.on_evict(), "capacity": 2},
                       UPDATE_ABC + [("flush_due",), ("get", "a"),
                                     ("update", "d")]),
}


def trace(name: str) -> List[Dict[str, Any]]:
    config, script = CASES[name]
    case = Case(**config)
    # A JSON round trip, so the recorded and the live trace compare alike.
    return json.loads(json.dumps(
        [case.snapshot(case.op(*step)) for step in script]))


@pytest.fixture(scope="module")
def recorded():
    return json.loads(TRACE.read_text())


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_manager_matches_recorded_trace(name, recorded):
    live = trace(name)
    for step, (got, want) in enumerate(zip(live, recorded[name])):
        assert got == want, (name, step, CASES[name][1][step])
    assert len(live) == len(recorded[name])


def record() -> None:
    lines = [f"  {json.dumps(name)}: [\n" + ",\n".join(
        f"    {json.dumps(snapshot, sort_keys=True)}"
        for snapshot in trace(name)) + "\n  ]" for name in sorted(CASES)]
    TRACE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    record()
