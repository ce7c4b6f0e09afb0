"""E11 — slate size versus updater speed (Section 5).

"We observe that slates can grow quite large and updaters that maintain
large slates can run more slowly due to the overhead. Consequently, we
encourage developers to keep individual slates small, e.g., many
kilobytes rather than many megabytes." The slate payload is swept on
both the wall-clock local runtime (E11a: real serialization costs) and
the simulator (E11b: modeled per-byte cost); E11c is the engineering
answer, an enforced ``max_slate_bytes`` cap.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Mapping

from repro.apps.counting import Count, count_app
from repro.campaign.claims import Metrics, Row, by_param, e_row, failed, latency_ms
from repro.cluster import ClusterSpec
from repro.core import Application, Context, Event, Updater
from repro.core.slate import Slate
from repro.muppet.local import LocalConfig, LocalMuppet
from repro.sim import SimConfig, SimRuntime, constant_rate
from repro.slates.manager import FlushPolicy


class _PaddedCounter(Count):
    """A counter whose slate carries a configurable payload blob."""

    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"count": 0, "pad": "x" * int(self.config["pad_bytes"])}


def _padded_app(pad_bytes: int) -> Application:
    app = Application(f"padded-{pad_bytes}")
    app.add_stream("S1", external=True)
    app.add_updater(
        "U1", _PaddedCounter, subscribes=["S1"], config={"pad_bytes": pad_bytes}
    )
    return app.validate()


def size_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    pad_bytes = int(params["pad_bytes"])
    # Real serialization: write-through flushing pays per byte.
    events = [Event("S1", float(i) * 1e-4, f"k{i % 8}") for i in range(400)]
    config = LocalConfig(
        num_threads=2, flush_policy=FlushPolicy.write_through(), record_latency=False
    )
    with LocalMuppet(_padded_app(pad_bytes), config) as local:
        start = time.perf_counter()
        local.ingest_many(events)
        local.drain()
        elapsed = time.perf_counter() - start
    # The same sweep on the cluster simulator's cost model.
    source = constant_rate(
        "S1", rate_per_s=500, duration_s=0.5, key_fn=lambda i: f"k{i % 8}"
    )
    simulated = SimRuntime(
        _padded_app(pad_bytes),
        ClusterSpec.uniform(1, cores=4),
        SimConfig(queue_capacity=100_000),
        [source],
    )
    latency = latency_ms(simulated.run(60.0))
    return {
        "wallclock_updates_per_s": round(len(events) / elapsed),
        "simulated_p50_ms": latency["p50_ms"],
        "simulated_p99_ms": latency["p99_ms"],
    }


def verify_size(rows: List[Row]) -> List[str]:
    cells = by_param(rows, "pad_bytes")
    small, large = cells[100], cells[1_000_000]
    return failed(
        (
            small["wallclock_updates_per_s"] > 3 * large["wallclock_updates_per_s"],
            "megabyte slates are not much slower on real threads",
        ),
        (
            large["simulated_p50_ms"] > 3 * small["simulated_p50_ms"],
            "the modeled per-event cost did not grow with slate size",
        ),
    )


class _Grower(Updater):
    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"log": []}

    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        log = slate["log"]
        log.append("entry " * 50)
        slate["log"] = log


def size_cap_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    config = LocalConfig(
        num_threads=1,
        max_slate_bytes=int(params["cap_bytes"]),
        flush_policy=FlushPolicy.write_through(),
    )
    app = count_app("grower", hops=0, updater=_Grower)
    with LocalMuppet(app, config) as runtime:
        for i in range(100):
            runtime.ingest(Event("S1", float(i), "k"))
        runtime.drain()
        rejected = runtime.operator_errors
        stored = runtime.store.read("k", "U1").value
    return {
        "updates_rejected_over_cap": rejected,
        "largest_persisted_blob_bytes": len(stored) if stored else 0,
    }


def verify_size_cap(rows: List[Row]) -> List[str]:
    cell = rows[0]["metrics"]
    return failed(
        (cell["updates_rejected_over_cap"] > 0, "the cap never fired"),
        (cell["largest_persisted_blob_bytes"] < 20_000, "an oversized blob persisted"),
    )


SPECS = (
    e_row(
        "e11_slate_size",
        "E11a/b (SS5): updaters that maintain large slates run more slowly "
        "(serialization and copying overhead); keep slates to kilobytes, not "
        "megabytes. Wall-clock updates per second are this machine's.",
        size_cell,
        {"pad_bytes": [100, 10_000, 1_000_000]},  # 100 B / 10 KB / 1 MB
        verify_size,
        volatile_metrics=("wallclock_updates_per_s",),
    ),
    e_row(
        "e11c_size_cap",
        "E11c: engines can enforce the keep-slates-small advice: updates that "
        "push a slate past the cap are rejected (and logged), and oversized "
        "state never reaches the key-value store.",
        size_cap_cell,
        {"cap_bytes": [10_000]},
        verify_size_cap,
    ),
)
