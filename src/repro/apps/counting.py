"""The counting pipeline every gate, campaign and model runs.

``S1 → M1(echo) → S2 → … → U1(count)``: the smallest workflow that
crosses the network, touches a slate and has an exact answer. Operator
and stream names (``M1``, ``U1``, ``S1``…) appear in every committed
artifact and must not change; application names appear in none.
"""

from __future__ import annotations

from typing import Any, Dict, List, Type

from repro.core.application import Application
from repro.core.event import Event
from repro.core.operators import Context, Mapper, Updater
from repro.core.slate import Slate


class Echo(Mapper):
    """Republish each event unchanged on ``config["output_sid"]``."""

    def map(self, ctx: Context, event: Event) -> None:
        ctx.publish(self.config["output_sid"], event.key, event.value)


class Count(Updater):
    """One ``count`` field per key; subclasses set ``cost_factor`` to
    make each update as expensive as their scenario needs."""

    def init_slate(self, key: str) -> Dict[str, Any]:
        return {"count": 0}

    def update(self, ctx: Context, event: Event, slate: Slate) -> None:
        slate["count"] += 1


def count_app(name: str, hops: int = 1,
              updater: Type[Updater] = Count) -> Application:
    """``S1`` through ``hops`` echo mappers (``M1``…) into ``U1``.

    ``hops=0`` subscribes the counter to the external stream directly;
    ``hops=2`` is the E1 chain, where the data plane rather than
    operator CPU dominates.
    """
    app = Application(name)
    app.add_stream("S1", external=True)
    for hop in range(1, hops + 1):
        app.add_stream(f"S{hop + 1}")
        app.add_mapper(f"M{hop}", Echo, subscribes=[f"S{hop}"],
                       publishes=[f"S{hop + 1}"],
                       config={"output_sid": f"S{hop + 1}"})
    app.add_updater("U1", updater, subscribes=[f"S{hops + 1}"])
    return app.validate()


def count_events(count: int, keys: int, spacing: float = 0.01) -> List[Event]:
    """``count`` events on ``S1``, ``spacing`` seconds apart, cycling
    over ``keys`` keys ``k0``, ``k1``… and numbered in their value."""
    return [Event("S1", ts=i * spacing, key=f"k{i % keys}", value=i)
            for i in range(count)]
