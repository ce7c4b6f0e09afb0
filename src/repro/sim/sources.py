"""Arrival processes: how external streams feed the simulated cluster.

A source is an iterable of :class:`~repro.core.event.Event` objects on one
external stream, with timestamps equal to intended (virtual) arrival times.
Constructors cover the paper's situations: steady production load, Poisson
arrivals, and "drastic spikes in the tweet volumes" (Section 1's earthquake
example) via piecewise rate profiles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Tuple

from repro.core.event import Event
from repro.errors import ConfigurationError

#: Produces the key for the i-th event of a source.
KeyFunction = Callable[[int], str]


@dataclass(slots=True)
class Source:
    """One external stream's event feed.

    Attributes:
        sid: The external stream ID events carry.
        events: The event iterator, in nondecreasing timestamp order.
    """

    sid: str
    events: Iterator[Event]


def constant_rate(
    sid: str,
    rate_per_s: float,
    duration_s: float,
    key_fn: KeyFunction,
) -> Source:
    """Evenly spaced arrivals at ``rate_per_s`` for ``duration_s``, from
    time 0, carrying no payload."""
    if rate_per_s <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate_per_s}")

    def generate() -> Iterator[Event]:
        interval = 1.0 / rate_per_s
        count = int(rate_per_s * duration_s)
        for i in range(count):
            yield Event(sid, i * interval, key_fn(i))

    return Source(sid, generate())


def poisson_rate(
    sid: str,
    rate_per_s: float,
    duration_s: float,
    key_fn: KeyFunction,
    seed: int = 0,
) -> Source:
    """Poisson arrivals (exponential inter-arrival times), seeded, from
    time 0, carrying no payload."""
    if rate_per_s <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate_per_s}")

    def generate() -> Iterator[Event]:
        rng = random.Random(seed)
        ts = 0.0
        i = 0
        while True:
            ts += rng.expovariate(rate_per_s)
            if ts >= duration_s:
                return
            yield Event(sid, ts, key_fn(i))
            i += 1

    return Source(sid, generate())


def spiky_rate(
    sid: str,
    phases: Sequence[Tuple[float, float]],
    key_fn: KeyFunction,
) -> Source:
    """Piecewise-constant rates from time 0: ``phases`` is
    [(rate_per_s, seconds), ...]; events carry no payload.

    Models the paper's "drastic spikes in the tweet volumes" — e.g. a
    steady 1,000 ev/s with a 10× burst during an earthquake minute.
    """
    if not phases:
        raise ConfigurationError("need at least one phase")
    for rate, seconds in phases:
        if rate < 0 or seconds <= 0:
            raise ConfigurationError(f"bad phase ({rate}, {seconds})")

    def generate() -> Iterator[Event]:
        phase_start = 0.0
        i = 0
        for rate, seconds in phases:
            if rate > 0:
                interval = 1.0 / rate
                count = int(rate * seconds)
                for j in range(count):
                    # Anchor to the phase start to avoid float drift
                    # accumulating across events.
                    yield Event(sid, phase_start + j * interval,
                                key_fn(i))
                    i += 1
            phase_start += seconds

    return Source(sid, generate())


def from_trace(sid: str, events: Iterable[Event]) -> Source:
    """Wrap a pre-generated trace (e.g. a workload-generator output)."""
    def generate() -> Iterator[Event]:
        last = float("-inf")
        for event in events:
            if event.sid != sid:
                raise ConfigurationError(
                    f"trace event on {event.sid!r}, expected {sid!r}"
                )
            if event.ts < last:
                raise ConfigurationError(
                    "trace events must be in nondecreasing ts order"
                )
            last = event.ts
            yield event

    return Source(sid, generate())
