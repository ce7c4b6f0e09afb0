"""F2 — Figure 2: Muppet's distributed execution with hashed routing.

Figure 2 shows an application with one map and one update function run as
five workers — three mappers M1–M3 and two updaters U1–U2 — fed by the
special source mapper M0, with events routed by hashing <key, destination
function>. Exactly that layout runs on the Muppet 1.0 engine, and its
routing invariants are checked: every key is owned by exactly one updater
worker, and load spreads across the workers. (F1a–c, Figure 1's
workflows, are ``tests/core/test_application.py``,
``tests/apps/test_retailer.py`` and ``tests/apps/test_hot_topics.py``.)
"""

from __future__ import annotations

from typing import Any, List, Mapping

from repro.campaign.claims import Metrics, Row, counted, e_row, failed, run_counting
from repro.cluster import ClusterSpec
from repro.sim import ENGINE_MUPPET1, SimConfig, constant_rate


def worker_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """Figure 2's layout on one 8-core machine, seen from one ``worker``."""
    keys = int(params["keys"])
    config = SimConfig(engine=ENGINE_MUPPET1, workers_per_function={"M1": 3, "U1": 2})
    source = constant_rate(
        "S1", rate_per_s=2000, duration_s=1.2, key_fn=lambda i: f"k{i % keys}"
    )
    runtime, report = run_counting(source, ClusterSpec.uniform(1, cores=8), config, 4.0)
    workers = {worker.wid: worker for worker in runtime.machines["m000"].workers}
    stats = workers[f"m000/{params['worker']}"].queue.stats
    return {
        "events_accepted": stats.accepted,
        "peak_queue_depth": stats.peak_depth,
        "workers_on_machine": len(workers),
        "counted": counted(runtime),
        "max_workers_per_slate": report.max_workers_per_slate,
    }


def verify_layout(rows: List[Row]) -> List[str]:
    cells = [row["metrics"] for row in rows]
    return failed(
        (
            all(cell["workers_on_machine"] == len(rows) for cell in cells),
            "not Figure 2's three mappers and two updaters",
        ),
        (all(cell["counted"] == 2400 for cell in cells), "events went uncounted"),
        # Each key's updater events all landed on one worker.
        (all(cell["max_workers_per_slate"] == 1 for cell in cells), "a shared key"),
        (all(cell["events_accepted"] > 0 for cell in cells), "an idle worker (spread)"),
    )


SPECS = (
    e_row(
        "f2_distributed_execution",
        "F2 (Figure 2): three mappers M1-M3 and two updaters U1-U2; M0 hashes "
        "each event's key to pick the mapper; mappers hash <key, destination "
        "updater> to pick the updater; all events with one key go to one "
        "updater (no slate contention in Muppet 1.0).",
        worker_cell,
        {"worker": ["M1#0", "M1#1", "M1#2", "U1#0", "U1#1"]},
        verify_layout,
        fixed={"keys": 24},
    ),
)
