"""The Muppet master: failure bookkeeping only (Sections 4.1, 4.3).

Unlike MapReduce, the master is *not* on the data path — "Muppet lets the
workers pass events directly to one another without going through any
master. (The master in Muppet is used for handling failures.)" A worker
that cannot contact a peer reports the peer's machine to the master; the
master broadcasts the failure to all workers, which update their local
failed-machine lists so the shared hash ring routes around the dead
machine from then on. Here the master keeps the set and counts the
broadcasts; the engine that reported acts on one itself, by changing the
ring (``SimRuntime._change_ring``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set

from repro.errors import ConfigurationError
from repro.obs.registry import CounterFields


@dataclass(slots=True)
class MasterStats(CounterFields):
    """Failure- and recovery-handling counters."""

    reports_received: int = 0
    broadcasts_sent: int = 0
    duplicate_reports: int = 0
    recovery_reports: int = 0
    recovery_broadcasts: int = 0
    duplicate_recovery_reports: int = 0
    #: Checkpoint-epoch barriers coordinated (effectively-once delivery).
    checkpoint_epochs: int = 0
    #: Live-migration ledger activity (elastic scaling).
    migrations_started: int = 0
    migrations_completed: int = 0
    migrations_aborted: int = 0
    migration_phase_records: int = 0


class Master:
    """Receives failure reports and broadcasts them to the cluster.

    The master is deliberately tiny: its only state is the set of machines
    known dead. Detection is the *workers'* job — they notice failures on
    send, which the paper argues beats MapReduce-style periodic pings
    because "a worker is frequently contacted" at streaming rates.
    """

    def __init__(self) -> None:
        self._failed: Set[str] = set()
        self.stats = MasterStats()
        #: Durable live-migration ledger: epoch -> phase record. The
        #: coordinator journals every phase transition here *before*
        #: acting on it, so a master crash mid-migration resumes from
        #: the last recorded phase instead of losing the handoff.
        self._migrations: Dict[int, Dict[str, str]] = {}

    def report_failure(self, machine: str) -> bool:
        """A worker reports that ``machine`` is unreachable.

        Returns True if this was news (a broadcast went out); False for
        duplicate reports, which are absorbed without re-broadcasting.
        """
        self.stats.reports_received += 1
        if machine in self._failed:
            self.stats.duplicate_reports += 1
            return False
        self._failed.add(machine)
        self.stats.broadcasts_sent += 1
        return True

    def report_recovery(self, machine: str) -> bool:
        """A revived machine reports itself back in service.

        Symmetric to :meth:`report_failure`: if the machine was known
        dead, the master clears it and broadcasts the recovery so every
        worker re-admits it to the shared hash ring. Returns True when a
        broadcast went out; False when the machine was not known dead
        (e.g. it crashed and revived before any sender noticed).
        """
        self.stats.recovery_reports += 1
        if machine not in self._failed:
            self.stats.duplicate_recovery_reports += 1
            return False
        self._failed.discard(machine)
        self.stats.recovery_broadcasts += 1
        return True

    def coordinate_epoch(self) -> int:
        """Count one checkpoint-epoch barrier; returns the epoch number.

        Effectively-once delivery periodically flushes every dirty slate
        behind a coordinated barrier and then prunes the replay
        journals. The master is the natural coordinator — it is already
        the control plane for every other cluster-wide transition
        (failure and recovery broadcasts) and stays off the data path.
        """
        self.stats.checkpoint_epochs += 1
        return self.stats.checkpoint_epochs

    # -- live-migration ledger (elastic scaling) ---------------------------
    def begin_migration(self, kind: str, machine: str) -> int:
        """Open a migration epoch in the ledger; returns its id.

        Migration epochs are master-scoped and monotone — the identity
        that makes every later phase record idempotent (recording the
        same (epoch, phase) twice is a no-op resume, not a new step).
        """
        if kind not in ("join", "retire"):
            raise ConfigurationError(
                f"migration kind must be 'join' or 'retire', got {kind!r}")
        self.stats.migrations_started += 1
        epoch = self.stats.migrations_started
        self._migrations[epoch] = {"kind": kind, "machine": machine,
                                   "phase": "plan"}
        return epoch

    def record_migration_phase(self, epoch: int, phase: str) -> None:
        """Journal a phase transition for an open migration epoch.

        Idempotent: re-recording the current phase (a resumed re-drive
        after a master crash) changes nothing but the counter.
        """
        record = self._migrations.get(epoch)
        if record is None or "outcome" in record:
            return
        record["phase"] = phase
        self.stats.migration_phase_records += 1

    def complete_migration(self, epoch: int) -> None:
        """Close a migration epoch as completed."""
        record = self._migrations.get(epoch)
        if record is None or "outcome" in record:
            return
        record["outcome"] = "completed"
        self.stats.migrations_completed += 1

    def abort_migration(self, epoch: int, reason: str) -> None:
        """Close a migration epoch as aborted (donor still owns keys)."""
        record = self._migrations.get(epoch)
        if record is None or "outcome" in record:
            return
        record["outcome"] = "aborted"
        record["reason"] = reason
        self.stats.migrations_aborted += 1
