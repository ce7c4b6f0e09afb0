"""LocalMuppet1: the Muppet **1.0** worker layout on real threads (§4.5).

The delivery path is :class:`~repro.muppet.local.ThreadedEngine`'s, shared
with the 2.0 :class:`~repro.muppet.local.LocalMuppet`; this module is only
what Section 4.5 says 2.0 changed, so the wall-clock gap between the two
(bench E3c) is these four things and nothing else:

* each worker is bound to **one** map or update function and loads its own
  operator copy (a thread standing in for the conductor/task-processor
  process pair);
* every delivery round-trips through a real framed
  :class:`~repro.muppet.conductor.Conductor` pipe — the event in, the
  slate in and back for updaters, the outputs back — so the IPC waste is
  paid in actual serialization work;
* each worker owns a **private** slate manager (the fragmented caches);
* ``<key, destination function>`` hashes to the single owning worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.hashring import HashRing, route_key
from repro.core.application import OperatorSpec
from repro.core.event import Event
from repro.core.operators import Context, Mapper, TimerRequest
from repro.core.slate import Slate, SlateKey
from repro.errors import ConfigurationError
from repro.muppet.conductor import Conductor, PipeStats, TaskProcessor
from repro.muppet.dispatch import DispatchStats
from repro.muppet.local import (CACHE_SLATES, ThreadedConfig, ThreadedEngine,
                                _Worker, _WorkItem)
from repro.muppet.queues import OverflowPolicy
from repro.slates.manager import SlateManager


@dataclass
class Local1Config(ThreadedConfig):
    """Knobs for the 1.0 layout. A full queue blocks the source by
    default, as 1.0's senders did; operators never block (Section 5)."""

    workers_per_function: int = 2
    overflow: OverflowPolicy = field(default_factory=OverflowPolicy.throttle,
                                     kw_only=True)

    def __post_init__(self) -> None:
        if self.workers_per_function < 1:
            raise ConfigurationError("workers_per_function must be >= 1")
        super().__post_init__()


class _Worker1(_Worker):
    """One 1.0 worker: a bound function with its own operator copy, a
    private slate manager, and a conductor pipe to "its" task processor."""

    __slots__ = ("wid", "function", "operator", "publishes", "conductor",
                 "timers")

    def __init__(self, wid: str, spec: OperatorSpec, capacity: int,
                 lock: Any, manager: SlateManager) -> None:
        super().__init__(capacity, lock, manager)
        self.wid = wid
        self.function = spec.name
        self.operator = spec.instantiate()
        self.publishes = spec.publishes
        self.conductor = Conductor(TaskProcessor(self._run_operator))
        #: Timers the last operator call set: they return beside the pipe.
        self.timers: List[TimerRequest] = []

    def _run_operator(self, event_dict: Dict[str, Any],
                      slate_dict: Optional[Dict[str, Any]]):
        """The task-processor side: decode, run user code, encode back."""
        event = Event(event_dict["sid"], event_dict["ts"],
                      event_dict["key"], event_dict["value"])
        ctx = Context(self.function, event.ts, self.publishes, event.key)
        operator = self.operator
        new_slate = None
        if isinstance(operator, Mapper):
            operator.map(ctx, event)
        else:
            slate = Slate(SlateKey(self.function, event.key),
                          slate_dict or operator.init_slate(event.key),
                          ttl=operator.slate_ttl, created_ts=event.ts)
            if event_dict.get("__timer__"):
                operator.on_timer(ctx, event.key, slate,
                                  event_dict.get("__payload__"))
            else:
                operator.update(ctx, event, slate)
            new_slate = slate.as_dict()
        self.timers = ctx.timers
        return [{"sid": e.sid, "ts": e.ts, "key": e.key, "value": e.value}
                for e in ctx.emitted], new_slate


class _OwnerDispatch:
    """1.0 placement: ``<key, function>`` hashes onto the function's own
    ring of workers, to exactly one owner (Section 4.1)."""

    def __init__(self, rings: Dict[str, HashRing[int]]) -> None:
        self._rings = rings
        self.stats = DispatchStats()

    def choose_workers(self, key: str, function: str,
                       workers: Sequence[_Worker1]) -> _Worker1:
        self.stats.dispatched += 1
        self.stats.to_primary += 1
        self.stats.queue_locks += 1
        return workers[self._rings[function].lookup(route_key(key, function))]


class LocalMuppet1(ThreadedEngine):
    """Run one MapUpdate application 1.0-style on local threads."""

    config_type = Local1Config

    def _build_pool(self) -> Tuple[List[_Worker1], _OwnerDispatch]:
        cfg = self.config
        specs = self.app.operators()
        per_worker_cache = max(1, CACHE_SLATES
                               // (len(specs) * cfg.workers_per_function))
        workers: List[_Worker1] = []
        rings: Dict[str, HashRing[int]] = {}
        for spec in specs:
            ring = rings[spec.name] = HashRing()
            for index in range(cfg.workers_per_function):
                ring.add(len(workers))
                workers.append(_Worker1(
                    f"{spec.name}#{index}", spec, cfg.queue_capacity,
                    self._dispatch_lock,
                    self._new_manager(per_worker_cache)))
        return workers, _OwnerDispatch(rings)

    def _invoke(self, worker: _Worker1, item: _WorkItem, ctx: Context,
                slate: Optional[Slate]) -> None:
        # The conductor's job: event and slate out, outputs and slate back.
        flags = None
        if item.timer is not None:
            flags = {"__timer__": True, "__payload__": item.timer.payload}
        outputs, new_slate = worker.conductor.process_event(
            item.event, None if slate is None else slate.as_dict(),
            flags=flags)
        if new_slate is not None:
            slate.replace(new_slate)
        ctx.emitted.extend(Event(out["sid"], out["ts"], out["key"],
                                 out["value"]) for out in outputs)
        ctx.timers.extend(worker.timers)

    def ipc_stats(self) -> PipeStats:
        """Aggregate conductor-pipe traffic (the §4.5 waste, measured)."""
        total = PipeStats()
        for worker in self._workers:
            for name, value in vars(worker.conductor.stats).items():
                setattr(total, name, getattr(total, name) + value)
        return total
