"""E7 — queue overflow policies (Sections 4.3, 5).

The three mechanisms when a destination queue declines an event: drop
(and log), divert to a degraded-service overflow stream, or slow the
sources (source throttling). The paper also explains why throttling
*inside* the workflow deadlocks (the 10,000-events example) — which is
why only sources are throttled; E7b demonstrates the safe variant.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

from repro.apps.counting import Count, count_app
from repro.campaign.claims import Metrics, Row, by_param, e_row, failed, latency_ms
from repro.cluster import ClusterSpec
from repro.core import Application, Context, Event, Updater
from repro.core.slate import Slate
from repro.muppet.queues import OverflowPolicy, SourceThrottle
from repro.sim import SimConfig, SimRuntime, constant_rate

OFFERED = 3000


def _throttle() -> SourceThrottle:
    """A fresh hysteresis controller (it keeps the run's pause state)."""
    return SourceThrottle(high_watermark=0.8, low_watermark=0.3)


def _overloaded_app() -> Application:
    """The counting pipeline plus a cheap counter on an overflow stream."""
    app = count_app("overflow-demo")
    app.add_stream("S_ovf", overflow=True)
    app.add_updater("U_cheap", Count, subscribes=["S_ovf"])
    return app.validate()


def policy_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """One slow machine, tiny queues, a burst far beyond capacity."""
    policy = str(params["policy"])
    if policy == "divert":
        config = SimConfig(queue_capacity=20, overflow=OverflowPolicy.divert("S_ovf"))
    elif policy == "throttle":
        config = SimConfig(
            queue_capacity=20, overflow=OverflowPolicy.throttle(), throttle=_throttle()
        )
    else:
        config = SimConfig(queue_capacity=20, overflow=OverflowPolicy.drop())
    source = constant_rate(
        "S1", rate_per_s=30_000, duration_s=0.1, key_fn=lambda i: "hot"
    )
    runtime = SimRuntime(
        _overloaded_app(), ClusterSpec.uniform(1, cores=2), config, [source]
    )
    report = runtime.run(60.0)
    full = (runtime.slate("U1", "hot") or {}).get("count", 0)
    degraded = (runtime.slate("U_cheap", "hot") or {}).get("count", 0)
    return {
        "full_service": full,
        "degraded": degraded,
        "dropped": report.counters.dropped_overflow,
        "diverted": report.counters.diverted_overflow_stream,
        "paused_s": round(report.throttle_paused_s, 3),
        **latency_ms(report, ("p99",)),
        "served_fraction": round((full + degraded) / OFFERED, 3),
    }


def verify_policies(rows: List[Row]) -> List[str]:
    cells = by_param(rows, "policy")
    drop, divert, throttle = cells["drop"], cells["divert"], cells["throttle"]
    divert_served = divert["full_service"] + divert["degraded"]
    return failed(
        # Drop: loses events, keeps latency low.
        (drop["dropped"] > 0, "drop dropped nothing"),
        (drop["full_service"] < OFFERED, "drop served the whole burst"),
        # Divert: overflow gets *some* (degraded) service instead of loss.
        (divert["degraded"] > 0, "divert gave no degraded service"),
        (divert_served > drop["full_service"], "divert served no more than drop"),
        # Throttle: everything processed at full service, nothing dropped,
        # at the price of source delay (latency).
        (throttle["full_service"] == OFFERED, "throttle did not serve every event"),
        (throttle["dropped"] == 0, "throttle dropped events"),
        (throttle["paused_s"] > 0, "throttle never paused the source"),
        (throttle["p99_ms"] > drop["p99_ms"], "throttle should pay in latency"),
    )


class _Amplifier(Updater):
    """Each source event emits ``fanout`` loop events (bounded depth)."""

    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"seen": 0}

    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        slate["seen"] += 1
        if event.sid == "S1":
            for i in range(self.config["fanout"]):
                ctx.publish("LOOP", f"{event.key}/{i}", None)


def feedback_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """A self-feeding updater (the 10,000-events scenario): with source
    throttling the run completes — the loop's own emissions are never
    blocked, only the external source is paced."""
    fanout = int(params["fanout"])
    app = Application("feedback")
    app.add_stream("S1", external=True)
    app.add_stream("LOOP")
    app.add_updater(
        "U1",
        _Amplifier,
        subscribes=["S1", "LOOP"],
        publishes=["LOOP"],
        config={"fanout": fanout},
    )
    config = SimConfig(
        queue_capacity=50, overflow=OverflowPolicy.throttle(), throttle=_throttle()
    )
    source = constant_rate(
        "S1", rate_per_s=2000, duration_s=0.1, key_fn=lambda i: f"k{i}"
    )
    runtime = SimRuntime(app, ClusterSpec.uniform(1, cores=2), config, [source])
    report = runtime.run(120.0)
    return {
        "source_events": 200,
        "expected": 200 * (1 + fanout),  # deliveries
        "processed": sum(s["seen"] for s in runtime.slates_of("U1").values()),
        "dropped": report.counters.dropped_overflow,
        "paused_s": round(report.throttle_paused_s, 3),
    }


def verify_feedback(rows: List[Row]) -> List[str]:
    cell = rows[0]["metrics"]
    return failed(
        (cell["processed"] == cell["expected"], "the loop deadlocked or lost events"),
        (cell["paused_s"] > 0, "the source was never paced"),
    )


SPECS = (
    e_row(
        "e7_overflow_policies",
        "E7 (SS4.3, SS5): overflow can drop (logged), divert to a degraded "
        "overflow stream, or throttle the sources; throttling trades latency "
        "for completeness.",
        policy_cell,
        {"policy": ["drop", "divert", "throttle"]},
        verify_policies,
    ),
    e_row(
        "e7b_feedback_loop",
        "E7b (SS5): throttling inside the workflow can deadlock a looping "
        "updater; throttling only the sources cannot: no operator ever blocks "
        "on its own output.",
        feedback_cell,
        {"fanout": [40]},
        verify_feedback,
    ),
)
