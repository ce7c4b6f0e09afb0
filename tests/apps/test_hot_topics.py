"""Hot-topic detection (Examples 2/5, Figure 1(c))."""

import json

from repro.apps.hot_topics import (build_hot_topics_app, minute_of_day,
                                   topic_minute_key)
from repro.core import Event, ReferenceExecutor
from repro.workloads import TopicBurst, TweetGenerator


class TestKeying:
    def test_minute_of_day_paper_examples(self):
        """'if the timestamp is 00:14 then m = 14; if the timestamp is
        23:59 then m = 1439'."""
        assert minute_of_day(14 * 60.0) == 14
        assert minute_of_day(23 * 3600 + 59 * 60.0) == 1439

    def test_wraps_across_days(self):
        assert minute_of_day(86_400.0 + 60.0) == 1

    def test_key_roundtrip(self):
        key = topic_minute_key("earthquake", ts=14 * 60.0)
        assert key == "earthquake|14"

    def test_topics_with_separator_still_split(self):
        # The minute is always after the last separator.
        key = topic_minute_key("a|b", ts=0.0)
        assert key == "a|b|0"
        assert key.rpartition("|") == ("a|b", "|", "0")


def tweet(topic, ts, user="u1"):
    return Event("S1", ts, user,
                 json.dumps({"user": user, "topics": [topic],
                             "text": f"about {topic}"}))


class TestPipeline:
    def test_minute_counts_published(self):
        """U1 emits (v_m, count) to S3 after its window closes."""
        app = build_hot_topics_app(window_s=60.0)
        events = [tweet("sports", ts) for ts in (0.0, 10.0, 20.0)]
        events.append(tweet("sports", 120.0))  # next window, fires timer
        result = ReferenceExecutor(app, record=("S3",)).run(events)
        s3 = result.events_on("S3")
        assert len(s3) >= 1
        assert s3[0].key == "sports|0"
        assert s3[0].value == 3

    def test_detector_uses_daily_average(self):
        """U2: hot when count / (total_count/days) > threshold."""
        app = build_hot_topics_app(window_s=60.0, threshold=3.0)
        events = []
        # Day 0 and day 1: 2 mentions of 'music' in minute 0 (baseline).
        for day in range(2):
            base = day * 86_400.0
            events += [tweet("music", base + 1.0),
                       tweet("music", base + 2.0)]
        # Day 2: a 10-mention burst in minute 0 → ratio 5 > 3 → hot.
        base = 2 * 86_400.0
        events += [tweet("music", base + i * 0.1) for i in range(10)]
        # Day 3 trickle so day-2's window timer has a successor context.
        events.append(tweet("music", 3 * 86_400.0 + 1.0))
        result = ReferenceExecutor(app, record=("S4",)).run(events)
        s4 = result.events_on("S4")
        assert len(s4) == 1
        assert s4[0].key == "music|0"
        assert s4[0].value == 10

    def test_no_alert_without_burst(self):
        app = build_hot_topics_app(window_s=60.0, threshold=3.0)
        events = []
        for day in range(4):
            base = day * 86_400.0
            events += [tweet("food", base + 1.0), tweet("food", base + 2.0)]
        result = ReferenceExecutor(app, record=("S4",)).run(events)
        assert result.events_on("S4") == []

    def test_sink_collects_alerts(self):
        app = build_hot_topics_app(window_s=60.0, threshold=2.0)
        events = [tweet("news", 1.0)]
        events += [tweet("news", 86_400.0 + i * 0.5) for i in range(8)]
        events.append(tweet("news", 2 * 86_400.0))
        result = ReferenceExecutor(app, record=("S4",)).run(events)
        alerts = [(e.key, e.value) for e in result.events_on("S4")]
        assert ("news|0", 8) in alerts


class TestWithGenerator:
    def test_burst_detected_in_synthetic_firehose(self):
        """End to end: a quiet baseline day, then a bursty day — the
        burst minute must surface as an S4 alert (the Section 1
        earthquake scenario)."""
        day1 = list(TweetGenerator(rate_per_s=30, seed=13)
                    .events(duration_s=240.0))
        # Burst the *least* popular topic: its count can actually jump by
        # the >3x the detector needs (the top topic already owns ~35% of
        # tweets, so no burst can triple it).
        burst = TopicBurst("fashion", start_s=86_400 + 120.0,
                           end_s=86_400 + 180.0, multiplier=30.0)
        day2 = list(TweetGenerator(rate_per_s=30, seed=14, bursts=[burst])
                    .events(duration_s=240.0, start_ts=86_400.0))
        result = ReferenceExecutor(
            build_hot_topics_app(window_s=60.0, threshold=3.0),
            max_events=500_000, record=("S4",)).run(day1 + day2)
        alerts = [e.key for e in result.events_on("S4")]
        assert any(key.startswith("fashion|") for key in alerts)
        # The alert names the burst minutes (2 or 3 of the day).
        assert any(key in ("fashion|2", "fashion|3") for key in alerts)
        # And no alert fires for the steady top topic.
        assert not any(key.startswith("earthquake|") for key in alerts)
