"""The declarative fault schedule — what goes wrong, and when.

A :class:`FaultSchedule` is an ordered collection of :class:`FaultEvent`
records plus one RNG seed. It replaces the simulator's bare
``[(time, machine)]`` kill list (which it still accepts via
:meth:`FaultSchedule.from_kill_list`) with the full chaos vocabulary:

========= ==================================================================
kind       meaning
========= ==================================================================
crash      the machine dies (crash-stop); queued events and unflushed
           dirty slates are lost, exactly the paper's Section 4.3 story.
recover    the machine comes back: it reports to the master, the master
           broadcasts recovery, the ring re-admits it, its slate manager
           re-hydrates lazily from the replicated kv-store, and hinted
           handoff drains to its kv node.
partition  the named machine group is isolated from the rest of the
           cluster for an interval; crossing messages are dropped and
           counted (``lost_partition``).
slow       gray failure: the machine stays up but its CPU service times
           and/or network transfers are inflated by a factor for an
           interval (the "limping node" nobody's failure detector sees).
drop       each message touching the (optional) target machine is dropped
           with a seeded probability for an interval.
delay      each matching message gains a fixed extra delay plus seeded
           jitter for an interval.
kv_outage  the co-located kv node goes down for an interval (machine and
           workers stay up); writes leave hints, the slate manager's
           retry/backoff/fail-open path absorbs errors, and the hints
           drain when the node returns.
migration_crash
           phase-triggered chaos for live slate handoff: when a
           migration enters the named phase, the chosen participant
           (donor, receiver, or master) crashes. Consumed by the
           migration coordinator, not scheduled at a time.
========= ==================================================================

All randomness (drop coin flips, delay jitter) comes from one
``random.Random(seed)`` owned by the injector, so two runs of the same
schedule over the same workload are bit-for-bit identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Every fault kind a schedule may contain.
FAULT_KINDS = ("crash", "recover", "partition", "slow", "drop", "delay",
               "kv_outage", "migration_crash")

#: Kinds that describe an interval of altered behaviour rather than a
#: single state change; the injector evaluates them at query time.
INTERVAL_KINDS = ("partition", "slow", "drop", "delay")

#: Kinds dispatched by the migration coordinator at phase entry rather
#: than at a wall-clock instant (``at`` is ignored for these).
MIGRATION_KINDS = ("migration_crash",)


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One scheduled fault. Use the :class:`FaultSchedule` builder
    methods rather than constructing these directly.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        at: Start time (simulated seconds).
        until: End time for interval kinds and ``kv_outage``; ``None``
            for point events (``crash``/``recover``) and open-ended
            intervals.
        machine: Target machine/kv-node name, when the kind takes one.
        group: The isolated machine set for ``partition``.
        cpu_factor / net_factor: Gray-failure inflation factors (>= 1).
        probability: Per-message probability for ``drop``/``delay``.
        extra_delay_s / jitter_s: Added latency for ``delay``.
        phase: Migration phase that triggers a ``migration_crash``.
        target: Which migration participant a ``migration_crash``
            kills: ``"donor"``, ``"receiver"``, or ``"master"``.
    """

    kind: str
    at: float
    until: Optional[float] = None
    machine: Optional[str] = None
    group: Optional[FrozenSet[str]] = None
    cpu_factor: float = 1.0
    net_factor: float = 1.0
    probability: float = 1.0
    extra_delay_s: float = 0.0
    jitter_s: float = 0.0
    phase: Optional[str] = None
    target: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; use one of {FAULT_KINDS}")
        if self.at < 0:
            raise ConfigurationError(f"{self.kind}: at={self.at} must be >= 0")
        if self.until is not None and self.until <= self.at:
            raise ConfigurationError(
                f"{self.kind}: until={self.until} must be > at={self.at}")
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"{self.kind}: probability {self.probability} outside [0, 1]")
        if self.cpu_factor < 1.0 or self.net_factor < 1.0:
            raise ConfigurationError(
                f"{self.kind}: slow factors must be >= 1 (a factor below 1 "
                "would be a speed-up, not a fault)")
        if self.extra_delay_s < 0 or self.jitter_s < 0:
            raise ConfigurationError(f"{self.kind}: delays must be >= 0")
        if self.kind == "partition" and not self.group:
            raise ConfigurationError("partition needs a non-empty group")
        if self.kind in ("crash", "recover", "slow", "kv_outage") \
                and not self.machine:
            raise ConfigurationError(f"{self.kind} needs a machine name")
        if self.kind == "migration_crash":
            from repro.elastic.migration import (MIGRATION_PHASES,
                                                 MIGRATION_TARGETS)
            if self.phase not in MIGRATION_PHASES:
                raise ConfigurationError(
                    f"migration_crash phase {self.phase!r} must be one "
                    f"of {MIGRATION_PHASES}")
            if self.target is not None \
                    and self.target not in MIGRATION_TARGETS:
                raise ConfigurationError(
                    f"migration_crash target {self.target!r} must be "
                    f"one of {MIGRATION_TARGETS}")
        elif self.phase is not None or self.target is not None:
            raise ConfigurationError(
                f"{self.kind}: phase/target apply only to "
                "migration_crash events")

    def active(self, now: float) -> bool:
        """Whether an interval fault applies at simulated time ``now``."""
        if now < self.at:
            return False
        return self.until is None or now < self.until

    def matches_message(self, src: Optional[str], dst: str) -> bool:
        """Whether a drop/delay rule applies to a ``src -> dst`` message.

        A rule with no target machine matches every message; otherwise it
        matches messages the target sends or receives. ``src is None``
        denotes a source-injection (M0) or master-control message.
        """
        if self.machine is None:
            return True
        return self.machine in (src, dst)


class FaultSchedule:
    """A seeded, ordered collection of fault events (builder-style).

    Builder methods return ``self`` so schedules chain::

        schedule = (FaultSchedule(seed=7)
                    .crash(1.0, "m001", recover_at=2.0)
                    .slow(0.5, "m002", until=1.5, cpu_factor=4.0)
                    .kv_outage(1.0, "m003", until=1.4)
                    .drop(0.8, until=1.2, probability=0.05))

    Args:
        seed: Seed for every probabilistic decision the schedule makes.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._events: List[FaultEvent] = []

    # -- builders ----------------------------------------------------------
    def add(self, event: FaultEvent) -> "FaultSchedule":
        """Append a pre-built event (validation ran at construction)."""
        self._events.append(event)
        return self

    def crash(self, at: float, machine: str,
              recover_at: Optional[float] = None) -> "FaultSchedule":
        """Kill ``machine`` at ``at``; optionally revive it later."""
        self.add(FaultEvent("crash", at, machine=machine))
        if recover_at is not None:
            if recover_at <= at:
                raise ConfigurationError(
                    f"recover_at={recover_at} must be > crash at={at}")
            self.recover(recover_at, machine)
        return self

    def recover(self, at: float, machine: str) -> "FaultSchedule":
        """Revive a previously crashed ``machine`` at ``at``."""
        return self.add(FaultEvent("recover", at, machine=machine))

    def partition(self, at: float, group: Iterable[str],
                  until: float) -> "FaultSchedule":
        """Isolate ``group`` from the rest of the cluster until ``until``."""
        return self.add(FaultEvent("partition", at, until=until,
                                   group=frozenset(group)))

    def slow(self, at: float, machine: str, until: float,
             cpu_factor: float = 1.0,
             net_factor: float = 1.0) -> "FaultSchedule":
        """Gray failure: inflate ``machine``'s CPU/network costs."""
        if cpu_factor == 1.0 and net_factor == 1.0:
            raise ConfigurationError(
                "slow fault needs cpu_factor or net_factor > 1")
        return self.add(FaultEvent("slow", at, until=until, machine=machine,
                                   cpu_factor=cpu_factor,
                                   net_factor=net_factor))

    def drop(self, at: float, until: float,
             probability: float) -> "FaultSchedule":
        """Drop messages with ``probability`` during the window."""
        if probability <= 0.0:
            raise ConfigurationError("drop probability must be > 0")
        return self.add(FaultEvent("drop", at, until=until,
                                   probability=probability))

    def delay(self, at: float, until: float, extra_s: float,
              jitter_s: float = 0.0,
              probability: float = 1.0) -> "FaultSchedule":
        """Add ``extra_s`` (+ uniform jitter) to messages."""
        if extra_s <= 0.0 and jitter_s <= 0.0:
            raise ConfigurationError("delay fault needs a positive delay")
        return self.add(FaultEvent("delay", at, until=until,
                                   extra_delay_s=extra_s, jitter_s=jitter_s,
                                   probability=probability))

    def kv_outage(self, at: float, machine: str,
                  until: float) -> "FaultSchedule":
        """Take the kv node co-located on ``machine`` down, then back up."""
        return self.add(FaultEvent("kv_outage", at, until=until,
                                   machine=machine))

    def at_migration(self, phase: str, target: str = "donor",
                     machine: Optional[str] = None) -> "FaultSchedule":
        """Crash a migration participant when a handoff enters ``phase``.

        Phase-triggered, not time-triggered: the migration coordinator
        consumes the first unconsumed matching event at each phase
        entry, which is what makes crash-during-snapshot or
        crash-during-cutover chaos tests deterministic regardless of
        when the autoscaler decides to migrate. ``target="master"``
        models a coordinator crash (the protocol pauses and re-drives
        from the master's ledger); ``machine`` overrides the default
        victim (first donor / first receiver in sorted order).
        """
        return self.add(FaultEvent("migration_crash", 0.0, phase=phase,
                                   target=target, machine=machine))

    # -- interop -----------------------------------------------------------
    @classmethod
    def from_kill_list(
            cls, failures: Iterable[Tuple[float, str]]) -> "FaultSchedule":
        """Adapt the legacy ``[(time, machine), ...]`` kill list."""
        schedule = cls()
        for at, machine in sorted(failures):
            schedule.crash(at, machine)
        return schedule

    # -- queries -----------------------------------------------------------
    def events(self) -> List[FaultEvent]:
        """All events ordered by start time (stable for ties)."""
        return sorted(self._events, key=lambda e: e.at)

    def interval_events(self) -> List[FaultEvent]:
        """The partition/slow/drop/delay rules, evaluated at query time."""
        return [e for e in self.events() if e.kind in INTERVAL_KINDS]

    def point_events(self) -> List[FaultEvent]:
        """crash/recover/kv_outage — realized as scheduled state changes."""
        return [e for e in self.events()
                if e.kind not in INTERVAL_KINDS
                and e.kind not in MIGRATION_KINDS]

    def migration_triggers(self) -> List[FaultEvent]:
        """Phase-triggered ``migration_crash`` events, in declaration
        order (the coordinator consumes each at most once)."""
        return [e for e in self._events if e.kind in MIGRATION_KINDS]

    def kill_list(self) -> List[Tuple[float, str]]:
        """The crash events in legacy kill-list form (compat shim)."""
        return [(e.at, e.machine) for e in self.events()
                if e.kind == "crash"]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self.events())
