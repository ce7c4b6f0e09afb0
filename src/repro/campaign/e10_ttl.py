"""E10 — TTL-bounded storage (Sections 4.2, 5).

"The TTL parameter helps contain the amount of storage used by a Muppet
application over time. Many such applications only care about current
activities ... an application may want to keep track of only active
Twitter users ... a working set which is typically much smaller than the
set of all Twitter users who have ever tweeted." Days of user churn are
simulated: a fixed active core plus a daily stream of one-shot users,
with and without a slate TTL, counting stored cells after compaction.
(E10b, an expired slate coming back freshly initialized, is
``tests/slates/test_manager.py`` and ``tests/kvstore/test_node.py``.)
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.campaign.claims import Metrics, Row, by_param, e_row, failed
from repro.kvstore.device import StorageDevice
from repro.kvstore.node import StorageNode

DAY = 86_400.0
DAYS, ACTIVE_USERS, CHURN_PER_DAY = 8, 500, 2_000


def storage_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """Write slates for an active core + daily one-shot users under a
    TTL of ``ttl_days`` (0 = no TTL)."""
    ttl = float(params["ttl_days"]) * DAY if params["ttl_days"] else None
    now = [0.0]
    node = StorageNode(
        "n",
        device=StorageDevice.ssd(),
        clock=lambda: now[0],
        memtable_flush_bytes=1 << 30,  # explicit flushes
    )
    metrics: Dict[str, Any] = {}
    for day in range(DAYS):
        now[0] = day * DAY
        for user in range(ACTIVE_USERS):  # active core, every day
            node.put(f"active{user}", "U1", b"s" * 64, ttl=ttl)
        for i in range(CHURN_PER_DAY):  # one-shot drive-bys
            node.put(f"d{day}u{i}", "U1", b"s" * 64, ttl=ttl)
        node.flush()
        node.compact()  # GC runs here (SS4.2)
        metrics[f"stored_day{day}"] = node.total_cells()
    metrics["ttl_purged_cells"] = node.stats.ttl_purged_cells
    return metrics


def verify_storage(rows: List[Row]) -> List[str]:
    cells = by_param(rows, "ttl_days")
    unbounded, bounded = cells[0], cells[2]
    # With a TTL: plateaus at ~ (active core + 2 days of churn).
    plateau = ACTIVE_USERS + 2 * CHURN_PER_DAY + CHURN_PER_DAY
    last_day_growth = unbounded["stored_day7"] - unbounded["stored_day6"]
    return failed(
        # No TTL: unbounded linear growth.
        (unbounded["stored_day7"] > unbounded["stored_day0"] * 4, "no-TTL growth"),
        (last_day_growth >= CHURN_PER_DAY, "no-TTL growth levelled off"),
        (bounded["stored_day7"] <= plateau, "the TTL did not bound storage"),
        (bounded["stored_day7"] == bounded["stored_day6"], "no steady state reached"),
        (bounded["ttl_purged_cells"] > 0, "compaction purged nothing"),
    )


SPECS = (
    e_row(
        "e10_ttl_storage",
        "E10 (SS4.2, SS5): slates not written for longer than the TTL are "
        "garbage collected; storage tracks the active working set instead of "
        "every user ever seen.",
        storage_cell,
        {"ttl_days": [0, 2]},
        verify_storage,
    ),
)
