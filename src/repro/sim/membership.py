"""Ring membership: who runs ``<key, function>`` (Sections 4.1, 4.5).

Muppet 2.0 hashes ``<key, function>`` to a *machine*, any of whose
threads may run it; Muppet 1.0 hashes it straight to the one *worker
process* that owns it, on a ring per function. Each class answers the
same two questions for its layout and applies the four membership
changes — named as their ``ring_change`` spans are — to its rings, so
nothing outside this module asks which engine is running. ``exclude`` /
``restore`` are Section 4.3's failed-machine list (points stay, lookups
skip them); ``join`` / ``retire`` are planned membership (points move,
``machine.retired`` says "built but out of the ring"). Only
:meth:`SimRuntime._change_ring` calls them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional

from repro.cluster.hashring import HashRing, route_key

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sim.runtime import _Machine, _Worker


class MachineRing:
    """Muppet 2.0: one ring of machines; any thread runs any function."""

    def __init__(self, machines: Dict[str, "_Machine"]) -> None:
        self._machines = machines
        self.ring: HashRing[str] = HashRing(machines)

    def owner(self, key: str, fn: str) -> "_Machine":
        """The live machine owning ``<key, fn>``; raises
        :class:`~repro.errors.WorkerFailedError` when none is left."""
        return self._machines[self.ring.lookup(route_key(key, fn))]

    def worker(self, key: str, fn: str) -> Optional["_Worker"]:
        """No thread is pinned by the hash: the owner's dispatcher
        chooses (and may spill to its second choice)."""
        return None

    def exclude(self, machine: "_Machine") -> None:
        self.ring.exclude(machine.name)

    def restore(self, machine: "_Machine") -> None:
        self.ring.restore(machine.name)

    def join(self, machine: "_Machine") -> None:
        machine.retired = False
        self.ring.add(machine.name)

    def retire(self, machine: "_Machine") -> None:
        machine.retired = True
        self.ring.remove(machine.name)


class WorkerRings:
    """Muppet 1.0: one ring of worker processes per function.

    ``ring`` is the seed machines' failed list (what a sender consults
    before it hashes): failures mark it as well as the worker rings,
    planned joins and retirements move worker-ring points only.
    """

    def __init__(self, machines: Dict[str, "_Machine"],
                 functions: Iterable[str]) -> None:
        self.ring: HashRing[str] = HashRing(machines)
        self._rings: Dict[str, HashRing[str]] = {
            fn: HashRing() for fn in functions}
        self._workers: Dict[str, "_Worker"] = {}
        for machine in machines.values():
            self.join(machine)

    def owner(self, key: str, fn: str) -> "_Machine":
        """The machine hosting the live worker that owns ``<key, fn>``;
        raises :class:`~repro.errors.WorkerFailedError` when no worker
        of ``fn`` is left."""
        return self.worker(key, fn).machine

    def worker(self, key: str, fn: str) -> "_Worker":
        """The one worker process ``<key, fn>`` hashes to."""
        return self._workers[self._rings[fn].lookup(route_key(key, fn))]

    def _ring_of(self, worker: "_Worker") -> HashRing[str]:
        (function,) = worker.operators  # a 1.0 process runs one function
        return self._rings[function]

    def exclude(self, machine: "_Machine") -> None:
        self.ring.exclude(machine.name)
        for worker in machine.workers:
            self._ring_of(worker).exclude(worker.wid)

    def restore(self, machine: "_Machine") -> None:
        self.ring.restore(machine.name)
        for worker in machine.workers:
            self._ring_of(worker).restore(worker.wid)

    def join(self, machine: "_Machine") -> None:
        machine.retired = False
        for worker in machine.workers:
            self._workers[worker.wid] = worker
            self._ring_of(worker).add(worker.wid)

    def retire(self, machine: "_Machine") -> None:
        machine.retired = True
        for worker in machine.workers:
            self._ring_of(worker).remove(worker.wid)
