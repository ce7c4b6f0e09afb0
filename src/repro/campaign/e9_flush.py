"""E9 — the flush-policy spectrum (Section 4.2).

"Dirty (updated) slates are periodically flushed to the key-value store.
The application can set the flushing interval, ranging from 'immediate
write-through' to 'only when evicted from cache'." The trade: kv-store
write volume (and its I/O) versus how much slate state a crash loses.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Mapping, Tuple

from repro.apps.counting import Count
from repro.campaign.claims import Metrics, Row, by_param, e_row, failed
from repro.kvstore.cluster import ReplicatedKVStore
from repro.slates.manager import FlushPolicy, SlateManager

POLICIES = {
    "write-through": FlushPolicy.write_through(),
    "every-0.1s": FlushPolicy.every(0.1),
    "every-1s": FlushPolicy.every(1.0),
    "on-evict": FlushPolicy.on_evict(),
}
KEYS = 50


def drive(
    policy: FlushPolicy, updates: int, keys: int, nodes: List[str], replication: int
) -> SlateManager:
    """Apply a hot-key update stream under one flush policy, at 1 ms of
    virtual time per clock reading by the driver or the manager (the store
    reads the time without advancing it: how often is its own business)."""
    ticks = itertools.count(1)
    now = [0.0]

    def clock() -> float:
        now[0] = next(ticks) * 0.001
        return now[0]

    store = ReplicatedKVStore(
        nodes, replication_factor=replication, clock=lambda: now[0]
    )
    manager = SlateManager(
        store, cache_capacity=keys * 2, flush_policy=policy, clock=clock
    )
    updater = Count(name="U1")
    for i in range(updates):
        slate = manager.get(updater, f"k{i % keys}")
        slate["count"] += 1
        slate.touch(clock())
        manager.note_update(slate)
        manager.flush_due()
    return manager


def flush_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """``updates`` updates of 50 hot keys under one ``policy``; then crash."""
    policy = POLICIES[str(params["policy"])]
    manager = drive(policy, int(params["updates"]), KEYS, ["n0", "n1"], 2)
    nodes = manager.store.nodes
    busy = sum(nodes[name].device.stats.busy_time_s for name in sorted(nodes))
    return {
        "kv_writes": manager.stats.kv_writes,
        "device_busy_s": round(busy, 6),
        "dirty_slates_lost": manager.crash(),
    }


def verify_flush(rows: List[Row]) -> List[str]:
    """E9: a monotone trade-off across the spectrum, at either length of
    stream. E9b: what per-update I/O costs the device - device time falls
    only once the interval is long enough for hot-slate overwrites to
    coalesce (at 1 ms per clock reading, every-0.1s barely does)."""
    cells = by_param(rows, "policy", "updates")
    claims: List[Tuple[bool, str]] = []
    for updates in (10_000, 5_000):
        sweep = [cells[policy, updates] for policy in POLICIES]
        writes = [cell["kv_writes"] for cell in sweep]
        losses = [cell["dirty_slates_lost"] for cell in sweep]
        at = f" at {updates} updates"
        claims += [
            (writes[0] == updates, "write-through should write every update" + at),
            (writes == sorted(writes, reverse=True), "kv writes not monotone" + at),
            (losses[0] == 0, "write-through lost state" + at),
            (losses[-1] == KEYS, "on-evict should lose all 50 dirty slates" + at),
            (losses == sorted(losses), "crash loss not monotone" + at),
        ]
    busy = {policy: cells[policy, 5_000]["device_busy_s"] for policy in POLICIES}
    eager = min(busy["write-through"], busy["every-0.1s"])
    claims.append(
        (busy["on-evict"] < busy["every-1s"] < eager, "coalescing saved no device time")
    )
    return failed(*claims)


SPECS = (
    e_row(
        "e9_flush_policies",
        "E9/E9b (SS4.2): the flushing interval ranges from immediate "
        "write-through to only-on-evict; fewer flushes mean cheaper writes but "
        "more loss on failure; delaying flushes 'as long as possible' saves "
        "device time because hot-slate overwrites coalesce.",
        flush_cell,
        {"policy": list(POLICIES), "updates": [10_000, 5_000]},
        verify_flush,
    ),
)
