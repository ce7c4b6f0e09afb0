"""Chaos fault injection for the simulated cluster.

Section 4.3 of the paper stops at crash-stop detection: a dead machine is
excluded from the hash ring "until operator intervention". This package
supplies the other half of a production failure story — a declarative,
seeded :class:`FaultSchedule` that injects crashes, crash-then-recover
cycles, network partitions, gray (slow-node) failures, probabilistic
message drop/delay, kv-node outages, and migration-phase-triggered
participant crashes (:meth:`FaultSchedule.at_migration`) into
:class:`repro.sim.runtime.SimRuntime`, and the two objects that realize
the schedule deterministically inside the discrete-event simulator:
the :class:`FaultInjector` (interval rules, asked per message) and
:class:`repro.faults.driver.FaultDriver` (crash, recovery and kv-outage
state changes, the heartbeat sweep, the recovery broadcast).
"""

from repro.faults.driver import RobustnessCounters
from repro.faults.injector import FaultInjector, FaultInjectorStats
from repro.faults.lattice import (CrashSite, FaultLattice, MigrationSite,
                                  describe_schedule)
from repro.faults.schedule import (FAULT_KINDS, MIGRATION_KINDS, FaultEvent,
                                   FaultSchedule)

__all__ = [
    "FAULT_KINDS",
    "MIGRATION_KINDS",
    "CrashSite",
    "FaultEvent",
    "FaultInjector",
    "FaultInjectorStats",
    "FaultLattice",
    "FaultSchedule",
    "MigrationSite",
    "RobustnessCounters",
    "describe_schedule",
]
