"""E2 — End-to-end latency under production load (Section 5).

Paper: "achieved a latency of under 2 seconds" while processing the
Twitter Firehose and Foursquare checkins on a cluster of tens of
machines. We drive both production streams simultaneously — tweets at
the paper's ~1,157 ev/s and checkins at ~17 ev/s — through a multi-stage
application mix on ten simulated machines and report the latency
distribution.
"""

from __future__ import annotations


from repro.cluster import ClusterSpec
from repro.core import Application
from repro.obs import (PAPER_CHECKINS_PER_SECOND, PAPER_LATENCY_BOUND_S,
                       PAPER_TWEETS_PER_SECOND)
from repro.sim import SimConfig, SimRuntime, from_trace, poisson_rate
from repro.workloads import CheckinGenerator, TweetGenerator
from repro.apps.hot_topics import MinuteCounter, TopicMapper
from repro.apps.retailer_count import CheckinCounter, RetailerMapper


def build_production_mix() -> Application:
    """Tweets → topic counting; checkins → retailer counting; one app."""
    app = Application("production-mix")
    app.add_stream("TWEETS", external=True)
    app.add_stream("CHECKINS", external=True)
    app.add_stream("TOPICS")
    app.add_stream("TOPIC_COUNTS")
    app.add_stream("RETAIL")
    app.add_mapper("M_topic", TopicMapper, subscribes=["TWEETS"],
                   publishes=["TOPICS"], config={"output_sid": "TOPICS"})
    app.add_updater("U_minute", MinuteCounter, subscribes=["TOPICS"],
                    publishes=["TOPIC_COUNTS"],
                    config={"output_sid": "TOPIC_COUNTS"})
    app.add_mapper("M_retail", RetailerMapper, subscribes=["CHECKINS"],
                   publishes=["RETAIL"], config={"output_sid": "RETAIL"})
    app.add_updater("U_retail", CheckinCounter, subscribes=["RETAIL"])
    return app.validate()


def test_e2_latency_under_two_seconds(benchmark, experiment):
    duration = 2.0
    tweets = TweetGenerator(sid="TWEETS",
                            rate_per_s=PAPER_TWEETS_PER_SECOND,
                            seed=201)
    checkins = CheckinGenerator(sid="CHECKINS",
                                rate_per_s=max(17.0,
                                               PAPER_CHECKINS_PER_SECOND),
                                seed=202)

    def run():
        runtime = SimRuntime(
            build_production_mix(),
            ClusterSpec.uniform(10, cores=4),
            SimConfig(),
            [from_trace("TWEETS", tweets.events(duration)),
             from_trace("CHECKINS", checkins.events(duration))])
        return runtime.run(duration + 10.0)

    sim_report = benchmark.pedantic(run, rounds=1, iterations=1)
    latency = sim_report.latency
    assert latency is not None
    report = experiment("E2-latency")
    report.claim("latency under 2 seconds at >100M tweets/day + 1.5M "
                 "checkins/day on tens of machines")
    report.table(
        ["metric", "value"],
        [["machines", 10],
         ["tweet rate (ev/s)", f"{PAPER_TWEETS_PER_SECOND:.0f}"],
         ["checkin rate (ev/s)", "17"],
         ["updater completions", latency.count],
         ["mean latency (ms)", f"{latency.mean * 1e3:.2f}"],
         ["p50 (ms)", f"{latency.p50 * 1e3:.2f}"],
         ["p95 (ms)", f"{latency.p95 * 1e3:.2f}"],
         ["p99 (ms)", f"{latency.p99 * 1e3:.2f}"],
         ["max (ms)", f"{latency.maximum * 1e3:.2f}"],
         ["paper bound (s)", PAPER_LATENCY_BOUND_S]])
    for name, summary in sorted(sim_report.latency_by_updater.items()):
        report.line(f"  {name}: p99 = {summary.p99 * 1e3:.2f} ms")
    assert latency.p99 < PAPER_LATENCY_BOUND_S
    assert latency.maximum < PAPER_LATENCY_BOUND_S
    report.outcome(f"p99 = {latency.p99 * 1e3:.1f} ms, max = "
                   f"{latency.maximum * 1e3:.1f} ms — far inside the "
                   "2 s bound (millisecond-to-second regime, §6)")


def test_e2_latency_vs_offered_load(benchmark, experiment):
    """Latency stays flat until saturation, then explodes — the knee."""
    rates = [1_000, 4_000, 8_000, 16_000, 32_000]

    def run():
        rows = []
        for rate in rates:
            source = poisson_rate("S1", rate, 0.5,
                                  key_fn=lambda i: f"u{i % 997}",
                                  seed=rate)
            from tests.conftest import build_count_app

            runtime = SimRuntime(build_count_app(),
                                 ClusterSpec.uniform(4, cores=4),
                                 SimConfig(queue_capacity=200_000),
                                 [source])
            sim_report = runtime.run(30.0)
            rows.append((rate, sim_report.latency.p50,
                         sim_report.latency.p99))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report = experiment("E2b-latency-knee")
    report.claim("near-real-time while under capacity; queueing delay "
                 "appears only past saturation")
    report.table(["offered ev/s", "p50 (ms)", "p99 (ms)"],
                 [[r, f"{p50 * 1e3:.2f}", f"{p99 * 1e3:.2f}"]
                  for r, p50, p99 in rows])
    p99s = [p99 for _, __, p99 in rows]
    assert p99s[0] < 0.05           # flat region: milliseconds
    assert p99s[-1] > 10 * p99s[0]  # saturated region: queueing blow-up
    report.outcome("flat millisecond latency until ~4 machines' capacity, "
                   "then the queueing knee (saturation)")


def test_e2_batching_latency_ablation(benchmark, experiment):
    """Latency cost of data-plane batching: the linger is the price.

    Coalescing delays an event by at most ``batch_linger_s`` while its
    envelope fills; the sweep shows p99 tracking the linger and staying
    orders of magnitude inside the paper's 2 s bound.
    """
    lingers_ms = [0.0, 2.0, 10.0]

    def once(linger_ms: float):
        from tests.conftest import build_count_app
        cfg = SimConfig(queue_capacity=200_000,
                        batch_max_events=64 if linger_ms > 0 else 0,
                        batch_linger_s=linger_ms / 1e3)
        source = poisson_rate("S1", 2_000, 2.0,
                              key_fn=lambda i: f"u{i % 997}",
                              seed=7)
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(6, cores=4),
                             cfg, [source])
        return runtime.run(30.0)

    def run():
        return [once(ms) for ms in lingers_ms]

    reports = benchmark.pedantic(run, rounds=1, iterations=1)
    report = experiment("E2c-batching-latency")
    report.claim("the linger bounds the latency added by coalescing; "
                 "end-to-end p99 stays far inside the 2 s bound")
    rows = []
    for ms, rep in zip(lingers_ms, reports):
        dp = rep.dataplane
        rows.append([f"{ms:.0f}",
                     f"{rep.latency.p50 * 1e3:.2f}",
                     f"{rep.latency.p99 * 1e3:.2f}",
                     dp.batches_sent,
                     f"{dp.batched_events / max(1, dp.batches_sent):.1f}"])
    report.table(["linger (ms)", "p50 (ms)", "p99 (ms)",
                  "batches", "avg ev/batch"], rows)
    p99s = [rep.latency.p99 for rep in reports]
    # Latency grows with the linger but stays bounded by it (plus the
    # unbatched base), far below the paper's 2 s requirement.
    assert p99s[1] >= p99s[0]
    assert p99s[2] >= p99s[1]
    for ms, p99 in zip(lingers_ms, p99s):
        assert p99 < PAPER_LATENCY_BOUND_S
        assert p99 < p99s[0] + ms / 1e3 + 0.05
    # Same work gets done regardless of the linger.
    processed = {rep.counters.processed for rep in reports}
    assert len(processed) == 1
    report.outcome(f"p99 {p99s[0] * 1e3:.1f} -> {p99s[1] * 1e3:.1f} -> "
                   f"{p99s[2] * 1e3:.1f} ms across 0/2/10 ms lingers — "
                   "latency cost equals the linger, throughput unchanged")
