"""The Muppet system: engines, queues, dispatch, failures, HTTP reads.

The cluster engines (Muppet 1.0 worker processes, Muppet 2.0 thread
pools) live in :mod:`repro.sim.runtime`, which runs them on a simulated
cluster; :class:`LocalMuppet` and :class:`LocalMuppet1` here are the 2.0
and 1.0 worker layouts of the one real-thread single-machine engine
(:mod:`repro.muppet.local`) used by examples and wall-clock benchmarks.

Section 5's "ongoing extensions" are implemented as opt-in modules:
:mod:`repro.muppet.replay` (event replay after failures),
:mod:`repro.muppet.placement` (locality-aware operator placement),
:mod:`repro.muppet.sideeffects` (bulk slate logging and the shared-log
contention study), and elastic membership via
``SimRuntime.schedule_add_machine``.
"""

from repro.muppet.dispatch import (DispatchStats, SingleChoiceDispatcher,
                                   TwoChoiceDispatcher)
from repro.muppet.http import SlateHTTPServer
from repro.muppet.conductor import (Conductor, IPCAccountant,
                                    TaskProcessor)
from repro.muppet.local import LocalConfig, LocalMuppet
from repro.muppet.local1 import Local1Config, LocalMuppet1
from repro.muppet.master import Master, MasterStats
from repro.muppet.placement import (FlowRecord, PlacementCost,
                                    TrafficMatrix, evaluate_placement,
                                    greedy_placement, hash_placement)
from repro.muppet.queues import (BoundedQueue, OverflowPolicy, QueueStats,
                                 SourceThrottle)
from repro.muppet.replay import ReplayJournal, ReplayStats
from repro.muppet.sideeffects import (PerWorkerLogger, SharedLogger,
                                      SlateLogSink)

__all__ = [
    "BoundedQueue",
    "DispatchStats",
    "FlowRecord",
    "Conductor",
    "IPCAccountant",
    "Local1Config",
    "LocalConfig",
    "LocalMuppet",
    "LocalMuppet1",
    "Master",
    "TaskProcessor",
    "MasterStats",
    "OverflowPolicy",
    "PerWorkerLogger",
    "PlacementCost",
    "QueueStats",
    "ReplayJournal",
    "ReplayStats",
    "SharedLogger",
    "SingleChoiceDispatcher",
    "SlateHTTPServer",
    "SlateLogSink",
    "SourceThrottle",
    "TrafficMatrix",
    "TwoChoiceDispatcher",
    "evaluate_placement",
    "greedy_placement",
    "hash_placement",
]
