"""A Storm/S4-style stream processor: routing without managed state (§6).

"These systems, however, leave it to the application to implement and
manage its own state. Our experience suggests that this is highly
nontrivial in many cases. By contrast, Muppet transparently manages
application storage."

This baseline gives the application exactly what Storm/S4 gave it in 2012:
key-grouped routing to bolt instances and nothing else. Each bolt keeps
whatever state it wants in an instance dict; nothing is persisted; killing
a bolt instance wipes its state. Bench E12 runs the same counting workload
here and on Muppet, then kills one instance in each and compares what
survives (Muppet refetches slates from the kv-store; this baseline
restarts from zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.cluster.hashring import stable_hash64
from repro.core.event import Event
from repro.errors import ConfigurationError

#: A bolt: process(event, state_dict, emit_fn). State is app-managed.
BoltFunction = Callable[[Event, Dict[str, Any],
                         Callable[[str, str, Any], None]], None]


@dataclass
class BoltStats:
    """Per-bolt-type counters."""

    processed: int = 0
    emitted: int = 0
    instance_restarts: int = 0
    state_entries_lost: int = 0


class _BoltInstance:
    """One parallel instance of a bolt with its private, volatile state."""

    def __init__(self, bolt_id: str, index: int) -> None:
        self.bolt_id = bolt_id
        self.index = index
        self.state: Dict[str, Any] = {}

    def crash(self) -> int:
        """Kill and restart the instance: all state is gone."""
        lost = len(self.state)
        self.state = {}
        return lost


class StormLikeTopology:
    """A minimal fields-grouped topology.

    Args:
        spout_stream: The stream ID external events arrive on.

    Usage::

        topo = StormLikeTopology("S1")
        topo.add_bolt("count", count_bolt, subscribes=["S1"], parallelism=4)
        topo.process(events)
        total = sum(inst.state.get("walmart", 0)
                    for inst in topo.instances("count"))
    """

    def __init__(self, spout_stream: str) -> None:
        self.spout_stream = spout_stream
        self._bolts: Dict[str, Tuple[BoltFunction, List[_BoltInstance]]] = {}
        self._subscriptions: Dict[str, List[str]] = {spout_stream: []}
        self.stats: Dict[str, BoltStats] = {}

    def add_bolt(self, bolt_id: str, fn: BoltFunction,
                 subscribes: List[str], parallelism: int = 1) -> None:
        """Register a bolt with fields-grouping on the event key."""
        if bolt_id in self._bolts:
            raise ConfigurationError(f"duplicate bolt {bolt_id!r}")
        if parallelism < 1:
            raise ConfigurationError("parallelism must be >= 1")
        instances = [_BoltInstance(bolt_id, i) for i in range(parallelism)]
        self._bolts[bolt_id] = (fn, instances)
        self.stats[bolt_id] = BoltStats()
        for sid in subscribes:
            self._subscriptions.setdefault(sid, []).append(bolt_id)

    def instances(self, bolt_id: str) -> List[_BoltInstance]:
        """The parallel instances of one bolt."""
        return self._bolts[bolt_id][1]

    def crash_instance(self, bolt_id: str, index: int) -> int:
        """Kill one instance; returns the number of state entries lost.

        This is the paper's point: with app-managed volatile state, a
        restart loses everything the instance knew.
        """
        stats = self.stats[bolt_id]
        instance = self._bolts[bolt_id][1][index]
        lost = instance.crash()
        stats.instance_restarts += 1
        stats.state_entries_lost += lost
        return lost

    def process(self, events) -> int:
        """Push events through the topology synchronously; returns count."""
        n = 0
        for event in events:
            n += 1
            self._route(event)
        return n

    def _route(self, event: Event) -> None:
        for bolt_id in self._subscriptions.get(event.sid, []):
            fn, instances = self._bolts[bolt_id]
            index = stable_hash64(event.key) % len(instances)
            instance = instances[index]
            stats = self.stats[bolt_id]
            stats.processed += 1

            def emit(sid: str, key: str, value: Any,
                     _ts: float = event.ts) -> None:
                stats.emitted += 1
                self._route(Event(sid, _ts + 1e-6, key, value))

            fn(event, instance.state, emit)
