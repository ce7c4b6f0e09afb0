"""Shared fixtures and helper applications for the test suite."""

from __future__ import annotations

import itertools
from typing import Callable, List, NamedTuple

import pytest

from repro.core import Application, Event, Mapper, Updater
from repro.muppet.local import LocalConfig, LocalMuppet, ThreadedEngine
from repro.muppet.local1 import Local1Config, LocalMuppet1


class EchoMapper(Mapper):
    """Forwards every event to the configured output stream unchanged."""

    def map(self, ctx, event):
        ctx.publish(self.config.get("output_sid", "S2"), event.key,
                    event.value)


class UppercaseMapper(Mapper):
    """Uppercases string payloads (a visibly transforming map)."""

    def map(self, ctx, event):
        value = event.value.upper() if isinstance(event.value, str) \
            else event.value
        ctx.publish(self.config.get("output_sid", "S2"), event.key, value)


class CountingUpdater(Updater):
    """The canonical counting updater: one ``count`` field per key."""

    def init_slate(self, key):
        return {"count": 0}

    def update(self, ctx, event, slate):
        slate["count"] += 1


class SummingUpdater(Updater):
    """Sums numeric payloads per key (commutative + associative)."""

    def init_slate(self, key):
        return {"total": 0}

    def update(self, ctx, event, slate):
        slate["total"] += event.value or 0


class ForwardingUpdater(Updater):
    """Counts and forwards each event (for multi-stage workflows)."""

    def init_slate(self, key):
        return {"count": 0}

    def update(self, ctx, event, slate):
        slate["count"] += 1
        ctx.publish(self.config.get("output_sid", "S3"), event.key,
                    slate["count"])


def build_count_app() -> Application:
    """S1 → M1(echo) → S2 → U1(count): the minimal end-to-end app."""
    app = Application("count")
    app.add_stream("S1", external=True)
    app.add_stream("S2")
    app.add_mapper("M1", EchoMapper, subscribes=["S1"], publishes=["S2"])
    app.add_updater("U1", CountingUpdater, subscribes=["S2"])
    return app.validate()


def build_two_stage_app() -> Application:
    """S1 → M1 → S2 → U1(forward) → S3 → U2(count)."""
    app = Application("two-stage")
    app.add_stream("S1", external=True)
    app.add_stream("S2")
    app.add_stream("S3")
    app.add_mapper("M1", EchoMapper, subscribes=["S1"], publishes=["S2"])
    app.add_updater("U1", ForwardingUpdater, subscribes=["S2"],
                    publishes=["S3"])
    app.add_updater("U2", CountingUpdater, subscribes=["S3"])
    return app.validate()


def make_events(count: int, sid: str = "S1", keys: int = 5,
                spacing: float = 0.01) -> List[Event]:
    """``count`` events on ``sid`` cycling over ``keys`` distinct keys."""
    return [Event(sid, ts=i * spacing, key=f"k{i % keys}", value=i)
            for i in range(count)]


class Layout(NamedTuple):
    """One worker layout of the threaded engine: its class, and its config
    from a worker count (threads, or workers per function) plus keywords."""

    name: str
    engine: type
    config: Callable[..., object]

    def build(self, app: Application, workers: int = 2,
              **config) -> ThreadedEngine:
        return self.engine(app, self.config(workers, **config))


POOL = Layout(
    "pool", LocalMuppet,
    lambda workers, **kw: LocalConfig(num_threads=workers, **kw))
PER_FUNCTION = Layout(
    "per-function", LocalMuppet1,
    lambda workers, **kw: Local1Config(workers_per_function=workers, **kw))
#: A test class of what the shared delivery path promises sets ``layout =
#: POOL`` and has a ``...PerFunction`` subclass that sets the other; a
#: test function is parametrized over both.
LAYOUTS = pytest.mark.parametrize("layout", (POOL, PER_FUNCTION),
                                  ids=lambda layout: layout.name)


@pytest.fixture
def count_app() -> Application:
    """A fresh minimal counting application."""
    return build_count_app()


@pytest.fixture
def two_stage_app() -> Application:
    """A fresh two-stage counting application."""
    return build_two_stage_app()


@pytest.fixture
def ticking_clock():
    """A callable clock advancing 1.0 s per call (deterministic)."""
    counter = itertools.count()

    def clock() -> float:
        return float(next(counter))

    return clock
