"""Hot-topic detection — Examples 2 and 5, Figure 1(c).

Workflow: S1 (tweets) → M1 (infer topics; key ``"topic|minute"``) → S2 →
U1 (count per topic-minute; after the minute closes, publish the count) →
S3 → U2 (compare against the per-day average for that minute-of-day; emit
hot topics) → S4.

Per the paper:

* M1 keys events by the concatenation of topic and minute-of-day ``m``
  ("if the timestamp is 00:14 then m = 14; if the timestamp is 23:59 then
  m = 1439").
* U1 keeps ``count`` per ``topic|minute`` key and publishes
  ``(topic|minute, count)`` to S3 "after a minute (counting from when it
  sees the first event with key v_m)" — realized via a timer.
* U2 keeps ``total_count`` and ``days`` per key, computes
  ``avg_count = total_count / days`` and flags the topic hot when
  ``count / avg_count`` exceeds a threshold.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.core.application import Application
from repro.core.event import Event
from repro.core.operators import Context, Mapper, Updater
from repro.core.slate import Slate
from repro.core.windows import TumblingWindow

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_DAY = 86_400.0
KEY_SEPARATOR = "|"


def minute_of_day(ts: float) -> int:
    """The paper's ``m``: minute within the day, 0..1439."""
    return int((ts % SECONDS_PER_DAY) // SECONDS_PER_MINUTE)


def topic_minute_key(topic: str, ts: float) -> str:
    """The paper's ``v_m`` key: topic and minute concatenated."""
    return f"{topic}{KEY_SEPARATOR}{minute_of_day(ts)}"


class TopicMapper(Mapper):
    """M1: classify each tweet into topics; emit one event per topic.

    Our "classifier" reads the generator's explicit topic annotations
    (a tweet without them has no topic) — standing in for the paper's
    production classifier.

    Config keys:
        output_sid: Defaults to ``"S2"``.
    """

    #: Tweet classification is the most expensive per-event step.
    cost_factor = 2.0

    def map(self, ctx: Context, event: Event) -> None:
        topics = self._classify(event.value)
        sid = self.config.get("output_sid", "S2")
        for topic in topics:
            ctx.publish(sid, key=topic_minute_key(topic, event.ts),
                        value=None)

    def _classify(self, value: Any) -> List[str]:
        if isinstance(value, str):
            try:
                value = json.loads(value)
            except ValueError:
                return []
        if not isinstance(value, dict):
            return []
        annotated = value.get("topics")
        return ([str(t) for t in annotated] if isinstance(annotated, list)
                else [])


class MinuteCounter(Updater):
    """U1: count tweets per ``topic|minute``; publish when the minute ends.

    "When U1 first encounters an event with key v_m, it creates a slate
    for this key, and sets count = 0 ... After a minute (counting from
    when it sees the first event with key v_m), U1 publishes an event
    (key = v_m, value = count) to a new stream S3."

    Config keys:
        window_s: Window length (default 60 s).
        output_sid: Defaults to ``"S3"``.
    """

    def __init__(self, config: Optional[Dict[str, Any]] = None,
                 name: str = "") -> None:
        super().__init__(config, name)
        self._window = TumblingWindow(
            "minute", float(self.config.get("window_s",
                                            SECONDS_PER_MINUTE)))

    def init_slate(self, key: str) -> Dict[str, Any]:
        return self._window.init({"count": 0})

    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        self._window.observe(ctx, event.ts, slate)
        slate["count"] += 1

    def on_timer(self, ctx: Context, key: str, slate: Slate,
                 payload: Any = None) -> None:
        ctx.publish(self.config.get("output_sid", "S3"), key=key,
                    value=slate["count"])
        # Close the window; the next day's events on this key reopen it.
        slate["count"] = 0
        self._window.close(slate)


class HotTopicDetector(Updater):
    """U2: flag ``topic|minute`` pairs whose count beats the daily average.

    "When U2 sees an event (v_m, count), it computes
    count / avg_count_{v_m}. If this ratio exceeds a certain threshold
    then U2 publishes an event with key v_m to a new stream S4." The slate
    holds the two summaries the paper lists: ``total_count`` and ``days``.

    Config keys:
        threshold: Hotness ratio (default 3.0).
        output_sid: Defaults to ``"S4"``.
    """

    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"total_count": 0, "days": 0}

    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        count = int(event.value or 0)
        threshold = float(self.config.get("threshold", 3.0))
        if slate["days"] > 0:
            avg_count = slate["total_count"] / slate["days"]
            if avg_count > 0 and count / avg_count > threshold:
                ctx.publish(self.config.get("output_sid", "S4"),
                            key=event.key, value=count)
        slate["total_count"] += count
        slate["days"] += 1


def build_hot_topics_app(
    window_s: float = SECONDS_PER_MINUTE,
    threshold: float = 3.0,
) -> Application:
    """Assemble the Figure 1(c) workflow; its output is stream S4.

    Args:
        window_s: U1's counting window (60 s in the paper; tests shrink
            it).
        threshold: U2's hotness ratio.
    """
    app = Application("hot-topics")
    app.add_stream("S1", external=True, description="Twitter stream")
    app.add_stream("S2", description="topic|minute mentions")
    app.add_stream("S3", description="per-minute topic counts")
    app.add_stream("S4", description="hot (topic, minute) alerts")
    app.add_mapper("M1", TopicMapper, subscribes=["S1"], publishes=["S2"])
    app.add_updater("U1", MinuteCounter, subscribes=["S2"],
                    publishes=["S3"], config={"window_s": window_s})
    app.add_updater("U2", HotTopicDetector, subscribes=["S3"],
                    publishes=["S4"], config={"threshold": threshold})
    app.mark_output("S4")
    return app.validate()

