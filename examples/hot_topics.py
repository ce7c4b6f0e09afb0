#!/usr/bin/env python
"""Example 2/5 (Figure 1(c)): detect hot topics in a tweet stream.

Generates two synthetic days of tweets — a quiet baseline day, then a
day with an injected "earthquake-style" burst on one topic — and runs
the three-stage hot-topic workflow: topic mapper → per-minute counter
(windowed by timers) → detector comparing each minute's count against
the per-day average for that minute.

Run:  python examples/hot_topics.py
"""

from __future__ import annotations

from repro.apps import build_hot_topics_app
from repro.core import ReferenceExecutor
from repro.obs import format_table
from repro.workloads import TopicBurst, TweetGenerator

DAY = 86_400.0


def main() -> None:
    rate = 40.0
    window_minutes = 4

    print("day 1: quiet baseline...")
    day1 = list(TweetGenerator(rate_per_s=rate, seed=61)
                .events(duration_s=window_minutes * 60.0))

    print("day 2: 'fashion' bursts 30x during minutes 1-2...")
    burst = TopicBurst("fashion", start_s=DAY + 60.0, end_s=DAY + 180.0,
                       multiplier=30.0)
    day2 = list(TweetGenerator(rate_per_s=rate, seed=62, bursts=[burst])
                .events(duration_s=window_minutes * 60.0, start_ts=DAY))

    app = build_hot_topics_app(window_s=60.0, threshold=3.0)
    result = ReferenceExecutor(app, max_events=2_000_000,
                               record=("S2", "S3", "S4")).run(day1 + day2)

    counts = result.events_on("S3")
    print(f"\nprocessed {len(day1) + len(day2)} tweets -> "
          f"{len(result.events_on('S2'))} topic mentions -> "
          f"{len(counts)} per-minute counts")

    day2_counts = [(e.key, e.value) for e in counts
                   if e.ts >= DAY and e.key.startswith("fashion|")]
    print(format_table(["topic|minute (day 2)", "count"],
                       [[k, v] for k, v in day2_counts]))

    alerts = [(e.key, e.value) for e in result.events_on("S4")]
    if alerts:
        print("\nHOT TOPIC ALERTS (stream S4):")
        for key, count in alerts:
            topic, minute = key.rsplit("|", 1)
            print(f"  topic {topic!r} is hot in minute {minute} "
                  f"({count} mentions vs the daily average)")
    else:
        print("\nno hot topics detected")
    assert any(key.startswith("fashion|") for key, _ in alerts), \
        "the injected burst should have been detected"


if __name__ == "__main__":
    main()
