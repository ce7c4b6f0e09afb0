"""Elastic membership on the simulated engine.

The policies live beside this module: :mod:`repro.elastic.autoscaler`
decides *when* the cluster grows or shrinks,
:mod:`repro.elastic.migration` hands slates to their new owners.
:class:`ElasticController` sits between them and
:class:`~repro.sim.runtime.SimRuntime`: it turns a join or retire
request into a live migration or the stop-the-world flush-barrier
change, serializes requests behind the one migration in flight, picks
which machine joins or leaves, samples the cluster for the autoscaler,
and answers the coordinator's cutover and completion hooks. The ring
itself only ever moves through ``SimRuntime._change_ring``.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, List,
                    Optional, Set, Tuple)

from repro.elastic.autoscaler import CHECK_PERIOD_S, Autoscaler, ScaleDecision
from repro.elastic.migration import MigrationCoordinator, MigrationState

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sim.des import Simulator
    from repro.sim.runtime import SimRuntime, _Machine


class ElasticController:
    """Executes planned membership changes for one runtime.

    Always built (``schedule_add_machine`` works in every
    configuration); the autoscaler and the coordinator exist only when
    configured, so a run that never asked for elasticity schedules and
    registers nothing. ``kill`` crashes a machine now — the
    coordinator's phase-triggered chaos needs it.
    """

    def __init__(self, rt: "SimRuntime",
                 kill: Callable[[str], None]) -> None:
        self.rt = rt
        auto_cfg = rt.config.autoscale
        seed = rt.cluster.machines
        self.autoscaler: Optional[Autoscaler] = (
            Autoscaler(auto_cfg, len(seed)) if auto_cfg is not None
            else None)
        #: Cores of the machines the autoscaler adds: the smallest seed
        #: machine's.
        self._grow_cores = min(spec.cores for spec in seed)
        mig_cfg = rt.config.migration
        self.migration: Optional[MigrationCoordinator] = (
            MigrationCoordinator(rt, mig_cfg, self, kill)
            if mig_cfg is not None else None)
        #: Scale requests queued behind the (single) in-flight
        #: migration, as (kind, machine) pairs.
        self._pending: Deque[Tuple[str, str]] = deque()
        #: Elastic joins in admission order — shrink retires LIFO.
        self._join_order: List[str] = []
        self._seq = itertools.count(1)

    # -- requests ------------------------------------------------------------
    def join(self, name: str, cores: int) -> None:
        """Admit ``name`` to the worker ring, building it first if it
        does not exist. A machine already in the ring is left alone; a
        retired one is re-admitted as it stands."""
        rt = self.rt
        machine = rt.machines.get(name)
        if machine is not None and not machine.retired:
            return
        if machine is None:
            machine = rt._construct_machine(name, cores)
        if self.migration is not None:
            self._request(self.migration, "join", name)
        else:
            # Flush-barrier join: the original Section 4.3 re-admission.
            rt._change_ring("join", machine, flush=True)
            self._join_order.append(name)

    def retire(self, name: str) -> None:
        """Take ``name`` out of the worker ring; it stays built and
        alive, first in line for the next scale-up."""
        if self.migration is not None:
            self._request(self.migration, "retire", name)
            return
        machine = self.rt.machines.get(name)
        if machine is None or machine.retired or not machine.alive:
            return
        self.rt._change_ring("retire", machine, flush=True)
        self.drop_retired_copies(machine)

    def _request(self, migration: MigrationCoordinator, kind: str,
                 name: str) -> None:
        """Requests serialize: one handoff is in flight at a time and
        the rest queue (FIFO), which keeps every ownership change
        attributable to exactly one migration epoch."""
        if migration.active is not None:
            self._pending.append((kind, name))
        else:
            self._start(migration, kind, name)

    def _start(self, migration: MigrationCoordinator, kind: str,
               name: str) -> None:
        ring = self.rt._machine_ring
        machine = self.rt.machines.get(name)
        if machine is None or not machine.alive:
            return
        if kind == "join":
            if name in ring.members:
                return
        elif machine.retired or name not in ring.live_members:
            return  # failed machines heal via replay, not migration
        migration.begin(kind, name)

    # -- the coordinator's hooks ------------------------------------------------
    def cutover(self, mig: MigrationState) -> int:
        """The ring has just flipped for ``mig``: re-address the journal,
        then note the admission order or clean up the retired donor.
        Returns how many journal entries changed destination."""
        rt = self.rt
        journal = rt.replay_journal
        donors = set(mig.donors())
        readdressed = 0
        if journal is not None and donors:
            def resolve(dest: str, payload: Any) -> Optional[str]:
                if dest not in donors:
                    return None
                target = rt._destination_machine(payload)
                return None if target is None else target.name

            readdressed = journal.readdress(resolve)
        if mig.kind == "join":
            self._join_order.append(mig.machine)
        else:
            self.drop_retired_copies(rt.machines[mig.machine])
        return readdressed

    def finished(self, mig: MigrationState, completed: bool) -> None:
        """``mig`` completed or aborted: start whatever queued behind it."""
        migration = self.migration
        assert migration is not None
        if mig.kind == "join" and not completed:
            machine = self.rt.machines.get(mig.machine)
            if (machine is not None
                    and mig.machine not in self.rt._machine_ring.members):
                # The joiner never entered the ring; park it as a
                # re-admission candidate for the next scale-up.
                machine.retired = True
        while self._pending and migration.active is None:
            kind, name = self._pending.popleft()
            self._start(migration, kind, name)

    def drop_retired_copies(self, machine: "_Machine") -> None:
        """Flush-and-drop every cache copy a retired machine still holds,
        and cold-start its dispatcher so a later re-admission is
        indistinguishable from a fresh join."""
        if not machine.alive:
            return
        io = 0.0
        for mgr in self.rt._managers_of(machine):
            mgr.flush_all_dirty()
            io += mgr.take_pending_io()
            for slate_key in list(mgr.cache.resident()):
                mgr.drop(slate_key)
        if io > 0:
            machine.occupy_device(self.rt.sim.now(), io)
        if machine.dispatcher is not None:
            machine.dispatcher.reset()

    # -- the autoscaler --------------------------------------------------------
    def schedule(self) -> None:
        """Arm the autoscaler's observation tick, if one is configured:
        sample cluster health each period, execute any resulting
        decision through :meth:`join` / :meth:`retire`."""
        scaler = self.autoscaler
        if scaler is None:
            return
        rt = self.rt

        def tick(sim: "Simulator") -> None:
            live = sorted(rt._machine_ring.live_members)
            alive = [rt.machines[n] for n in live
                     if rt.machines[n].alive]
            worst = max((m.queue_depth_fraction() for m in alive),
                        default=0.0)
            decision = scaler.observe(
                sim.now(), worst_queue_fraction=worst,
                live_machines=len(live))
            if decision is not None:
                self._execute(scaler, decision)

        rt.sim.every(CHECK_PERIOD_S, tick)

    def _execute(self, scaler: Autoscaler, decision: ScaleDecision) -> None:
        if self.migration is not None and (
                self.migration.active is not None or self._pending):
            # A handoff is in flight (or queued): don't pile decisions on
            # top — the EWMA will re-fire if pressure persists.
            scaler.counters.blocked_migration += 1
            return
        for _ in range(decision.count):
            if decision.direction == "grow":
                self.join(self._next_join_candidate(), self._grow_cores)
            else:
                victim = self._pick_retire_victim()
                if victim is None:
                    return
                self.retire(victim)

    def _claimed(self) -> Set[str]:
        claimed = {n for _, n in self._pending}
        if self.migration is not None and self.migration.active is not None:
            claimed.add(self.migration.active.machine)
        return claimed

    def _next_join_candidate(self) -> str:
        """Pick the next machine to admit: retired machines re-admit
        first (their probes and workers already exist), then fresh
        ``e###`` names from the elastic sequence."""
        machines = self.rt.machines
        claimed = self._claimed()
        for name in sorted(machines):
            machine = machines[name]
            if machine.retired and machine.alive and name not in claimed:
                return name
        while True:
            name = f"e{next(self._seq):03d}"
            if name not in machines:
                return name

    def _pick_retire_victim(self) -> Optional[str]:
        """Pick the machine to retire: last joined leaves first (LIFO —
        elastic machines drain before seed machines), falling back to
        the lexicographically last live member."""
        claimed = self._claimed()
        live = self.rt._machine_ring.live_members
        for name in reversed(self._join_order):
            if name in live and name not in claimed:
                return name
        candidates = sorted(n for n in live if n not in claimed)
        if len(candidates) <= 1:
            return None
        return candidates[-1]

    # -- metrics -------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The ``elastic`` metrics family: cluster size, autoscaler
        decisions, and migration handoff accounting."""
        rt = self.rt
        stats: Dict[str, Any] = {
            "machines_live": len(rt._machine_ring.live_members),
            "machines_retired": sum(
                1 for m in rt.machines.values() if m.retired),
            "pending_requests": len(self._pending),
        }
        if self.autoscaler is not None:
            for key, value in self.autoscaler.counters.as_dict().items():
                stats[f"autoscaler.{key}"] = value
            stats["autoscaler.queue_ewma"] = self.autoscaler.smoothed_queue
        if self.migration is not None:
            for key, value in self.migration.counters.as_dict().items():
                stats[f"migration.{key}"] = value
        return stats
