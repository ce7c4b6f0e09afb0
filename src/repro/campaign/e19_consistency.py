"""E19 — the quorum knob (Section 4.2).

"The application can specify the desired quorum used by the Cassandra
store for a successful read/write operation: any single machine ..., a
majority of replicas ..., or all of the replicas." The trade is classic:
stronger levels cost more per operation and lose availability when
replicas die; weaker levels are fast and available but can serve stale
reads (repaired lazily).
"""

from __future__ import annotations

import itertools
from typing import Any, List, Mapping

from repro.campaign.claims import Metrics, Row, by_param, e_row, failed
from repro.errors import QuorumError
from repro.kvstore.api import ConsistencyLevel
from repro.kvstore.cluster import ReplicatedKVStore


def _store(nodes: int) -> ReplicatedKVStore:
    ticks = itertools.count()
    return ReplicatedKVStore(
        [f"n{i}" for i in range(nodes)],
        replication_factor=3,
        clock=lambda: float(next(ticks)),
    )


def _writes(store: ReplicatedKVStore, value: bytes, level: ConsistencyLevel) -> bool:
    try:
        store.write("row0", "U1", value, consistency=level)
    except QuorumError:
        return False
    return True


def level_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """2,000 writes at one consistency ``level`` on 5 nodes, rf = 3;
    then row0's replicas go down one at a time."""
    level, store, writes = ConsistencyLevel(params["level"]), _store(5), 2_000
    cost = 0.0
    for i in range(writes):
        cost += store.write(f"row{i % 200}", "U1", b"v" * 128, consistency=level).cost_s
    store.mark_down(store.replicas_for("row0")[0])
    survives_one = _writes(store, b"v2", level)
    store.mark_down(store.replicas_for("row0")[1])
    return {
        "mean_write_cost_us": round(cost / writes * 1e6, 2),
        "writes_with_1_down": survives_one,  # replicas of the row
        "writes_with_2_down": _writes(store, b"v3", level),
        "hints_stored": store.hints_stored,
    }


def verify_levels(rows: List[Row]) -> List[str]:
    """The availability ladder at rf = 3."""
    cells = by_param(rows, "level")
    one, quorum = cells["one"], cells["quorum"]
    return failed(
        (one["writes_with_1_down"] and one["writes_with_2_down"], "ONE survives two"),
        (quorum["writes_with_1_down"], "QUORUM survives one replica failure"),
        (not quorum["writes_with_2_down"], "QUORUM does not survive two"),
        (not cells["all"]["writes_with_1_down"], "ALL survives none"),
    )


def read_repair_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """ONE can read stale data after a partial write; QUORUM cannot
    (read repair patches the stragglers on the way)."""
    store = _store(int(params["replicas"]))
    store.write("row", "U1", b"v1", consistency=ConsistencyLevel.ALL)
    straggler = store.replicas_for("row")[2]
    store.mark_down(straggler)  # it misses the second write
    store.write("row", "U1", b"v2", consistency=ConsistencyLevel.QUORUM)
    # Drop the hint *before* rejoin so the replica comes back genuinely
    # stale (isolating read repair from hinted handoff).
    store._hints.clear()
    store.mark_up(straggler)
    node = store.nodes[straggler]
    before = node.get("row", "U1")[0]
    quorum_read = store.read("row", "U1", ConsistencyLevel.QUORUM).value
    after = node.get("row", "U1")[0]
    return {
        "stale_replica_before_quorum_read": before.decode() if before else "absent",
        "quorum_read_returns": quorum_read.decode(),
        "stale_replica_after_quorum_read": after.decode() if after else "absent",
    }


def verify_read_repair(rows: List[Row]) -> List[str]:
    cell = rows[0]["metrics"]
    return failed(
        (cell["stale_replica_before_quorum_read"] == "v1", "the replica is not stale"),
        (cell["quorum_read_returns"] == "v2", "the majority did not win"),
        (cell["stale_replica_after_quorum_read"] == "v2", "read repair healed nothing"),
    )


SPECS = (
    e_row(
        "e19_consistency_levels",
        "E19 (SS4.2): ONE / QUORUM (majority) / ALL: stronger levels pay more "
        "and tolerate fewer failures; missed writes accumulate as hints for "
        "handoff.",
        level_cell,
        {"level": ["one", "quorum", "all"]},
        verify_levels,
    ),
    e_row(
        "e19b_read_repair",
        "E19b (SS4.2): majority reads reconcile divergent replicas "
        "(last-write-wins) and repair stale ones.",
        read_repair_cell,
        {"replicas": [3]},
        verify_read_repair,
    ),
)
