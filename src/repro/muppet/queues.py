"""Bounded event queues and overflow policies (Sections 4.1, 4.3).

Each worker "has its own queue for input events", held in memory. Queues
are bounded: "if the queue of B is full (i.e., its size has reached a
pre-specified limit), B will decline to accept the event. In this case A
has to invoke a queue overflow mechanism." The mechanism may

1. **drop** the incoming events (logged as lost),
2. **divert** them to a designated *overflow stream* whose recipients run
   degraded/cheaper processing, or
3. **throttle** — slow the pace of consuming the application's input
   streams (source throttling, Section 5; throttling *inside* the workflow
   risks the 10,000-events deadlock the paper describes, so only sources
   are throttled).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Generic, Iterator, List, Optional, TypeVar

from repro.errors import ConfigurationError
from repro.obs.registry import CounterFields

T = TypeVar("T")


@dataclass(slots=True)
class QueueStats(CounterFields):
    """Counters for one bounded queue."""

    offered: int = 0
    accepted: int = 0
    rejected: int = 0
    peak_depth: int = 0


class BoundedQueue(Generic[T]):
    """A FIFO with a hard size limit; full queues decline new items.

    Args:
        max_size: The "pre-specified limit" on queue length.
    """

    def __init__(self, max_size: int = 10_000) -> None:
        if max_size < 1:
            raise ConfigurationError(f"max_size must be >= 1, got {max_size}")
        self.max_size = max_size
        self._items: Deque[T] = deque()
        self.stats = QueueStats()

    def offer(self, item: T) -> bool:
        """Try to enqueue; returns False when the queue declines (full)."""
        self.stats.offered += 1
        if len(self._items) >= self.max_size:
            self.stats.rejected += 1
            return False
        self._items.append(item)
        self.stats.accepted += 1
        if len(self._items) > self.stats.peak_depth:
            self.stats.peak_depth = len(self._items)
        return True

    def poll(self) -> Optional[T]:
        """Dequeue the next item, or None when empty."""
        if not self._items:
            return None
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def drain(self) -> List[T]:
        """Remove and return everything (machine-failure accounting:
        "all events in its queue are also lost", Section 4.3)."""
        items = list(self._items)
        self._items.clear()
        return items


@dataclass(frozen=True)
class OverflowPolicy:
    """What a sender does when the destination queue declines an event.

    Attributes:
        kind: ``"drop"``, ``"divert"``, or ``"throttle"``.
        overflow_sid: Target stream for the ``"divert"`` kind — connected
            to operators implementing "slightly degraded service".
    """

    kind: str = "drop"
    overflow_sid: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("drop", "divert", "throttle"):
            raise ConfigurationError(
                f"unknown overflow policy {self.kind!r}; "
                "use drop, divert, or throttle"
            )
        if self.kind == "divert" and not self.overflow_sid:
            raise ConfigurationError(
                "divert policy requires an overflow_sid"
            )

    @classmethod
    def drop(cls) -> "OverflowPolicy":
        """Drop and log — the paper's first option."""
        return cls(kind="drop")

    @classmethod
    def divert(cls, overflow_sid: str) -> "OverflowPolicy":
        """Send to a degraded-service overflow stream."""
        return cls(kind="divert", overflow_sid=overflow_sid)

    @classmethod
    def throttle(cls) -> "OverflowPolicy":
        """Slow the sources until the hotspot catches up (Section 5)."""
        return cls(kind="throttle")


class SourceThrottle:
    """Hysteresis controller for source throttling (Section 5).

    "When Muppet detects a hotspot, it can slow down the pace at which it
    consumes events from its input streams ... to allow until the hotspot
    updater has a chance to catch up." Throttling anywhere else can
    deadlock (the 10,000-events example), so only sources consult this.

    Args:
        high_watermark: Max queue depth (fraction of capacity) that pauses
            the sources.
        low_watermark: Depth fraction below which sources resume.
    """

    def __init__(self, high_watermark: float = 0.9,
                 low_watermark: float = 0.5) -> None:
        if not 0.0 < low_watermark < high_watermark <= 1.0:
            raise ConfigurationError(
                f"need 0 < low ({low_watermark}) < high ({high_watermark}) "
                "<= 1"
            )
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self.paused = False
        self.pause_count = 0
        self.paused_time_s = 0.0
        self._paused_since: Optional[float] = None

    def observe(self, depth_fraction: float, now: float) -> bool:
        """Update state from the worst queue-depth fraction; returns
        True while sources should hold off."""
        if not self.paused and depth_fraction >= self.high_watermark:
            self.pause(now)
        elif self.paused and depth_fraction <= self.low_watermark:
            self.resume(now)
        return self.paused

    def pause(self, now: float) -> None:
        """Pause the sources now (idempotent).

        The watermark path goes through :meth:`observe`; the adaptive
        backpressure controller drives the throttle tier through
        ``pause``/``resume`` directly, sharing the same accounting.
        """
        if not self.paused:
            self.paused = True
            self.pause_count += 1
            self._paused_since = now

    def resume(self, now: float) -> None:
        """Resume the sources now (idempotent)."""
        if self.paused:
            self.paused = False
            if self._paused_since is not None:
                self.paused_time_s += now - self._paused_since
                self._paused_since = None

    def duty_cycle(self, now: float) -> float:
        """Fraction of ``[0, now]`` the sources spent paused.

        Includes any still-open pause interval; 0.0 before time starts.
        """
        if now <= 0.0:
            return 0.0
        paused = self.paused_time_s
        if self.paused and self._paused_since is not None:
            paused += now - self._paused_since
        return min(1.0, paused / now)

    def finish(self, now: float) -> None:
        """Count any open pause interval up to ``now`` (end of a run) and
        reopen it there, so a resumed run counts the rest of the pause."""
        if self.paused and self._paused_since is not None:
            self.paused_time_s += now - self._paused_since
            self._paused_since = now
