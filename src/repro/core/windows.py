"""Tumbling-window helpers for update functions.

Three of the paper's applications repeat the same slate pattern: count
events for a fixed interval "counting from when it sees the first event"
(Example 5's per-minute counter), then emit and reset. This module
factors that pattern into :class:`TumblingWindow`, a small state machine
an updater embeds in its slate — so windowed updaters stay a few lines,
and the open/emit/reset bookkeeping is tested once.

Usage inside an updater::

    WINDOW = TumblingWindow("w", length_s=60.0)

    def init_slate(self, key):
        return WINDOW.init({"count": 0})

    def update(self, ctx, event, slate):
        WINDOW.observe(ctx, event.ts, slate)
        slate["count"] += 1

    def on_timer(self, ctx, key, slate, payload=None):
        count = slate["count"]
        slate["count"] = 0
        WINDOW.close(slate)
        ctx.publish("OUT", key, count)
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.operators import Context
from repro.errors import ConfigurationError


class TumblingWindow:
    """Per-slate tumbling-window bookkeeping.

    The window opens at the first observed event and requests a timer
    ``length_s`` later; the updater's ``on_timer`` does its emission and
    calls :meth:`close`, after which the next event reopens a window.
    Several windows can coexist in one slate under different names.

    Args:
        name: Field-name prefix inside the slate (several windows may
            share a slate).
        length_s: Window length in seconds.
    """

    def __init__(self, name: str, length_s: float) -> None:
        if not name:
            raise ConfigurationError("window name must be non-empty")
        if length_s <= 0:
            raise ConfigurationError("window length must be positive")
        self.name = name
        self.length_s = length_s
        self._open_field = f"__{name}_open__"
        self._start_field = f"__{name}_start__"

    def init(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        """Augment an ``init_slate`` dict with the window's fields."""
        fields[self._open_field] = False
        fields[self._start_field] = -1.0
        return fields

    def observe(self, ctx: Context, ts: float, slate: Any) -> bool:
        """Note one event; opens the window (and arms the timer) if it
        is not already open. Returns True when this event opened it."""
        if slate.get(self._open_field):
            return False
        slate[self._open_field] = True
        slate[self._start_field] = ts
        ctx.set_timer(ts + self.length_s)
        return True

    def close(self, slate: Any) -> None:
        """Close the window (call from ``on_timer`` after emitting)."""
        slate[self._open_field] = False
        slate[self._start_field] = -1.0
