"""The fault driver — a schedule's point events realized on the cluster.

:class:`~repro.faults.injector.FaultInjector` answers the per-message
questions of the interval rules; :class:`FaultDriver` is the other half,
the discrete state changes: it crashes and revives simulated machines,
takes co-located kv nodes down and up, runs the master's opt-in
heartbeat sweep, and carries a revived machine through the recovery
broadcast back into the ring.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sim.des import Simulator
    from repro.sim.runtime import SimRuntime


@dataclass(slots=True)
class RobustnessCounters:
    """Failure-injection and recovery accounting for one simulated run.

    Aggregated into :class:`repro.sim.report.SimReport` from the fault
    injector, the master, the slate managers, and the kv-store, so chaos
    tests can assert on one object (and print it byte-identically across
    seeded runs — see ``SimReport.counter_report``).
    """

    #: Machines revived through the master's recovery broadcast.
    recoveries: int = 0
    #: Slates a revived machine's manager refetched from the kv-store.
    rehydrated_slates: int = 0
    #: Slate-manager kv operations retried after a transient StoreError.
    kv_retries: int = 0
    #: Simulated seconds spent in retry exponential backoff.
    kv_backoff_s: float = 0.0
    #: Reads/writes that degraded (fail-open) after exhausting retries.
    fail_open_reads: int = 0
    fail_open_writes: int = 0
    #: Simulated seconds of extra service/network time from gray (slow
    #: node) failures.
    gray_slow_s: float = 0.0
    #: Messages dropped by injected drop rules / lost crossing an
    #: injected network partition.
    dropped_injected: int = 0
    lost_partition: int = 0
    #: Messages delayed by injected delay rules, and the total extra time.
    delayed_injected: int = 0
    injected_delay_s: float = 0.0
    #: Hinted-handoff accounting: hints buffered for down kv nodes,
    #: hints delivered on rejoin, hints evicted by the bounded buffers,
    #: and hints still pending at report time.
    hints_stored: int = 0
    hints_delivered: int = 0
    hints_evicted: int = 0
    hints_pending: int = 0
    #: Effectively-once accounting: replayed events skipped by a slate's
    #: persisted dedup watermark, replayed events that applied (their
    #: effects were lost with the crash), checkpoint-epoch barriers run,
    #: and journal entries pruned at those barriers. All zero unless
    #: ``SimConfig.delivery_semantics == "effectively-once"``.
    replay_deduped: int = 0
    replay_reapplied: int = 0
    checkpoint_epochs: int = 0
    epoch_pruned: int = 0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict snapshot (insertion-ordered, deterministic)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class FaultDriver:
    """Applies crash / recover / kv-outage events to one runtime."""

    def __init__(self, rt: "SimRuntime") -> None:
        self.rt = rt
        #: Machines revived through the master's recovery broadcast.
        self.recoveries = 0
        #: When the first machine died; failure-detection latency is
        #: measured from here.
        self.first_failure_at: Optional[float] = None

    def schedule_points(self) -> None:
        """Put the schedule's crash/recover/kv_outage events on the heap."""
        for fault in self.rt.fault_schedule.point_events():
            if fault.kind == "crash":
                self._at(fault.at, self.kill, fault.machine)
            elif fault.kind == "recover":
                self._at(fault.at, self.revive, fault.machine)
            elif fault.kind == "kv_outage":
                self._at(fault.at, self.down, fault.machine)
                self._at(fault.until, self.up, fault.machine)

    def _at(self, when: float, action: Callable[[str], None],
            machine: str) -> None:
        """Schedule ``action(machine)`` ahead of ordinary traffic at the
        same instant. The heap entry keeps the action's name, which is
        what the model checker labels it with (``ctl:kill``,
        ``ctl:revive``, ``ctl:down``, ``ctl:up``)."""
        @functools.wraps(action)
        def fire(sim: "Simulator") -> None:
            action(machine)

        self.rt.sim.schedule(when, fire, priority=-1)

    # -- machines --------------------------------------------------------------
    def kill(self, machine_name: str) -> None:
        """Crash a machine at the current instant: its queues, in-flight
        work and unflushed slates are gone (Section 4.3)."""
        rt = self.rt
        machine = rt.machines.get(machine_name)
        if machine is None:
            raise ConfigurationError(
                "crash fault targets unknown machine "
                f"{machine_name!r}; cluster has "
                f"{sorted(rt.machines)}")
        if not machine.alive:
            return
        machine.alive = False
        if self.first_failure_at is None:
            self.first_failure_at = rt.sim.now()
        # Events still buffered for this machine are as dead as its
        # queues: flush them now so they are counted lost (and the
        # failure broadcast fires) instead of lingering.
        rt._flush_batches(to=machine)
        machine.replay_pins.clear()
        for worker in machine.workers:
            rt.counters.lost_failure += len(worker.queue.drain())
        for mgr in rt._managers_of(machine):
            mgr.crash()
        if rt.config.kill_kv_on_machine_failure \
                and machine_name in rt.store.nodes:
            # Elastic machines (joined after boot) host workers only;
            # kv membership is fixed at the seed spec.
            rt.store.mark_down(machine_name)

    def revive(self, machine_name: str) -> None:
        """The full machine-recovery path — the Section 4.3 gap closed.

        The paper excludes a dead machine from the ring "until operator
        intervention" and leaves recovery as future work. Here the
        revived machine (1) restarts its workers with cold caches,
        (2) brings its co-located kv node back, draining hinted handoff,
        (3) reports to the master, which broadcasts recovery exactly as
        it broadcasts failure (one report hop + one broadcast hop), and
        (4) rejoins the shared hash ring behind the same rebalance
        barrier as elastic joins: survivors flush dirty slates first, so
        keys that move back re-hydrate from fresh kv-store state through
        the ordinary Section 4.2 cache-miss path.
        """
        rt = self.rt
        machine = rt.machines.get(machine_name)
        if machine is None or machine.alive:
            return
        machine.alive = True
        # Workers still mid-service when the machine died have their
        # _finish callbacks pending; count them as busy so the core
        # ledger stays consistent whichever order things resolve.
        busy = sum(1 for w in machine.workers if w.busy)
        machine.free_cores = machine.cores - busy
        machine.waiting.clear()
        for worker in machine.workers:
            if not worker.busy:
                worker.waiting = False
        for mgr in rt._managers_of(machine):
            mgr.revive()
        if rt.config.kill_kv_on_machine_failure:
            self.up(machine_name)
        self.recoveries += 1

        def broadcast(sim: "Simulator") -> None:
            if not machine.alive:
                return  # crashed again before the broadcast landed
            rt.master.report_recovery(machine_name)
            rt._known_failed.discard(machine_name)
            # Survivors flush before the ring re-admits the machine,
            # so keys that move back re-hydrate from fresh kv state
            # (the barrier schedule_add_machine also takes).
            rt._change_ring("restore", machine, flush=True)

        # Report to master (one hop) + broadcast to workers (one
        # hop) — symmetric to failure reporting.
        rt.sim.schedule_in(2 * rt.cluster.network.latency_s, broadcast,
                           priority=-1)

    def sweep(self, sim: "Simulator") -> None:
        """Master-side liveness sweep (see ``SimConfig.heartbeat_s``).

        Each sweep declares any machine that is down but not yet known
        failed — same exclusion + broadcast + journal replay as the
        sender-side path, so a crash in a quiet traffic window still
        triggers replay before its journal entries age out. Retired
        machines are the planned-removal case and are skipped.
        """
        rt = self.rt
        for name in sorted(rt.machines):
            machine = rt.machines[name]
            if not machine.alive and not machine.retired \
                    and name not in rt._known_failed:
                rt._declare_machine_failed(name)

    # -- co-located kv nodes -----------------------------------------------------
    def down(self, node_name: str) -> None:
        """Start a transient outage of one co-located kv node (the
        machine and its workers stay up)."""
        node = self.rt.store.nodes.get(node_name)
        if node is not None and not node.is_down:
            self.rt.store.mark_down(node_name)

    def up(self, node_name: str) -> None:
        """Bring a kv node back; its hinted handoff drains."""
        node = self.rt.store.nodes.get(node_name)
        if node is not None and node.is_down:
            self.rt.store.mark_up(node_name)
