"""E2 — end-to-end latency under production load (Section 5).

Paper: "achieved a latency of under 2 seconds" while processing the
Twitter Firehose and Foursquare checkins on a cluster of tens of
machines. E2 drives both production streams at once — tweets at the
paper's ~1,157 ev/s and checkins at ~17 ev/s — through a multi-stage
application mix on ten simulated machines. E2b sweeps the offered load
past saturation to find the knee. (E2c, the linger's latency cost, is
the ``e2_latency`` cell of ``perf_baseline`` and
``tests/sim/test_batching.py``.)
"""

from __future__ import annotations

from typing import Any, List, Mapping

from repro.apps.hot_topics import MinuteCounter, TopicMapper
from repro.apps.retailer_count import CheckinCounter, RetailerMapper
from repro.campaign.claims import (
    Metrics,
    Row,
    by_param,
    e_row,
    failed,
    latency_ms,
    latency_of,
    ms,
    run_counting,
)
from repro.cluster import ClusterSpec
from repro.core import Application
from repro.obs import (
    PAPER_CHECKINS_PER_SECOND,
    PAPER_LATENCY_BOUND_S,
    PAPER_TWEETS_PER_SECOND,
)
from repro.sim import SimConfig, SimRuntime, from_trace, poisson_rate
from repro.workloads import CheckinGenerator, TweetGenerator


def build_production_mix() -> Application:
    """Tweets -> topic counting; checkins -> retailer counting; one app."""
    app = Application("production-mix")
    app.add_stream("TWEETS", external=True)
    app.add_stream("CHECKINS", external=True)
    app.add_stream("TOPICS")
    app.add_stream("TOPIC_COUNTS")
    app.add_stream("RETAIL")
    app.add_mapper(
        "M_topic",
        TopicMapper,
        subscribes=["TWEETS"],
        publishes=["TOPICS"],
        config={"output_sid": "TOPICS"},
    )
    app.add_updater(
        "U_minute",
        MinuteCounter,
        subscribes=["TOPICS"],
        publishes=["TOPIC_COUNTS"],
        config={"output_sid": "TOPIC_COUNTS"},
    )
    app.add_mapper(
        "M_retail",
        RetailerMapper,
        subscribes=["CHECKINS"],
        publishes=["RETAIL"],
        config={"output_sid": "RETAIL"},
    )
    app.add_updater("U_retail", CheckinCounter, subscribes=["RETAIL"])
    return app.validate()


def production_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """Both production streams for ``duration`` s on ``machines`` machines."""
    duration = float(params["duration"])
    tweets = TweetGenerator(sid="TWEETS", rate_per_s=PAPER_TWEETS_PER_SECOND, seed=201)
    checkins = CheckinGenerator(
        sid="CHECKINS", rate_per_s=max(17.0, PAPER_CHECKINS_PER_SECOND), seed=202
    )
    runtime = SimRuntime(
        build_production_mix(),
        ClusterSpec.uniform(int(params["machines"]), cores=4),
        SimConfig(),
        [
            from_trace("TWEETS", tweets.events(duration)),
            from_trace("CHECKINS", checkins.events(duration)),
        ],
    )
    report = runtime.run(duration + 10.0)
    metrics = latency_ms(report, ("mean", "p50", "p95", "p99", "maximum"))
    metrics["completions"] = latency_of(report).count
    for name, summary in report.latency_by_updater.items():
        metrics[f"p99_ms_{name}"] = ms(summary.p99)
    return metrics


def verify_production(rows: List[Row]) -> List[str]:
    cell = rows[0]["metrics"]
    bound_ms = PAPER_LATENCY_BOUND_S * 1e3
    return failed(
        (cell["p99_ms"] < bound_ms, "p99 outside the paper's 2 s bound"),
        (cell["max_ms"] < bound_ms, "worst event outside the paper's 2 s bound"),
    )


def knee_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    """Half a second of Poisson arrivals at ``rate`` ev/s on 4 machines."""
    rate = int(params["rate"])
    source = poisson_rate("S1", rate, 0.5, key_fn=lambda i: f"u{i % 997}", seed=rate)
    _, report = run_counting(
        source,
        ClusterSpec.uniform(4, cores=4),
        SimConfig(queue_capacity=200_000),
        30.0,
    )
    return latency_ms(report)


def verify_knee(rows: List[Row]) -> List[str]:
    """Latency stays flat until saturation, then explodes."""
    cells = by_param(rows, "rate")
    flat, saturated = cells[1_000]["p99_ms"], cells[32_000]["p99_ms"]
    return failed(
        (flat < 50.0, "under capacity, p99 should be milliseconds"),
        (saturated > 10 * flat, "past saturation, queueing should blow p99 up"),
    )


SPECS = (
    e_row(
        "e2_production_latency",
        "E2 (SS5): latency under 2 seconds at >100M tweets/day + 1.5M "
        "checkins/day on tens of machines.",
        production_cell,
        {"machines": [10]},
        verify_production,
        fixed={"duration": 2.0},
    ),
    e_row(
        "e2b_latency_knee",
        "E2b: near-real-time while under capacity; queueing delay appears only "
        "past saturation.",
        knee_cell,
        {"rate": [1_000, 4_000, 8_000, 16_000, 32_000]},
        verify_knee,
    ),
)
