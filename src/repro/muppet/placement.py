"""Placement of mappers and updaters — the Section 5 exploration.

"Currently the placement of mappers and updaters in Muppet is in effect
decided by the hashing function ... We are exploring how to place mappers
and updaters so that they are close to their data in a way that reduces
network traffic."

The paper explains why this is nontrivial: the best placement depends on
the *contents* of the stream (which retailers are popular), popularity
drifts, and multi-stage flows couple placements ("assignments that reduce
network traffic for the input ... of one function may increase the
network traffic coming in or out another").

This module implements the exploration as a first-class tool:

* :class:`TrafficMatrix` — measured event flow between (producer
  machine, key, destination function) triples, as collected from a run
  or a trace;
* :func:`hash_placement` — the production baseline: keys placed by the
  ring, ignoring traffic;
* :func:`greedy_placement` — a locality-aware heuristic that assigns
  each (function, key) slot to the machine that already produces most of
  its input, subject to per-machine load caps;
* :func:`evaluate_placement` — bytes crossing the network under a given
  placement, so the two can be compared (bench E14).

The drift caveat is reproduced too: a placement optimized on yesterday's
traffic can *lose* to hashing when popularity shifts (see the bench).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.hashring import HashRing, route_key
from repro.errors import ConfigurationError

#: A placement target: (destination function, event key) → machine name.
Slot = Tuple[str, str]
Placement = Dict[Slot, str]


class TrafficMatrix:
    """Aggregated event traffic, the input to placement decisions.

    Populated by :meth:`record` calls (engines can hook their send
    path).
    """

    def __init__(self) -> None:
        # slot -> producer machine -> bytes
        self._flows: Dict[Slot, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self._events: Dict[Slot, int] = defaultdict(int)

    def record(self, producer_machine: str, function: str, key: str,
               size_bytes: int) -> None:
        """Account one event sent toward (function, key)."""
        slot = (function, key)
        self._flows[slot][producer_machine] += size_bytes
        self._events[slot] += 1

    def slots(self) -> List[Slot]:
        """All observed (function, key) slots, sorted for determinism."""
        return sorted(self._flows)

    def bytes_into(self, slot: Slot) -> int:
        """Total bytes flowing into one slot."""
        return sum(self._flows[slot].values())

    def producers_of(self, slot: Slot) -> Dict[str, int]:
        """Bytes into ``slot`` per producer machine."""
        return dict(self._flows[slot])

    def total_bytes(self) -> int:
        """All traffic in the matrix."""
        return sum(self.bytes_into(slot) for slot in self._flows)


def hash_placement(matrix: TrafficMatrix,
                   machines: List[str]) -> Placement:
    """The production baseline: the consistent-hash ring decides.

    This is content-oblivious — exactly what the paper says Muppet does
    today ("in effect decided by the hashing function").
    """
    if not machines:
        raise ConfigurationError("need at least one machine")
    ring: HashRing[str] = HashRing(machines)
    return {
        (function, key): ring.lookup(route_key(key, function))
        for function, key in matrix.slots()
    }


def greedy_placement(matrix: TrafficMatrix, machines: List[str],
                     max_load_fraction: float = 0.5) -> Placement:
    """Locality-aware greedy placement.

    Processes slots heaviest-first; each goes to the machine producing
    the most of its input, unless that machine already carries more than
    ``max_load_fraction`` of total traffic (a crude balance guard — the
    paper's hotspot lesson applies to placement as well: all-local would
    put the popular retailers on the checkin-ingest machine and melt it).

    Args:
        matrix: Observed traffic.
        machines: Candidate machines.
        max_load_fraction: Cap on any one machine's share of total
            placed traffic.

    Returns:
        A placement mapping each slot to a machine.
    """
    if not machines:
        raise ConfigurationError("need at least one machine")
    if not 0.0 < max_load_fraction <= 1.0:
        raise ConfigurationError("max_load_fraction must be in (0, 1]")
    total = max(1, matrix.total_bytes())
    budget = max_load_fraction * total
    load: Dict[str, int] = {machine: 0 for machine in machines}
    ring: HashRing[str] = HashRing(machines)
    placement: Placement = {}

    heaviest_first = sorted(matrix.slots(),
                            key=lambda slot: -matrix.bytes_into(slot))
    for slot in heaviest_first:
        weight = matrix.bytes_into(slot)
        producers = matrix.producers_of(slot)
        candidates = sorted(producers, key=lambda m: -producers[m])
        chosen: Optional[str] = None
        for machine in candidates:
            if machine in load and load[machine] + weight <= budget:
                chosen = machine
                break
        if chosen is None:
            # Fall back to the least-loaded machine (or the ring when
            # all else is equal) to preserve balance.
            chosen = min(machines, key=lambda m: (load[m], m))
            if load[chosen] + weight > budget:
                chosen = ring.lookup(route_key(slot[1], slot[0]))
        placement[slot] = chosen
        load[chosen] += weight
    return placement


@dataclass(frozen=True)
class PlacementCost:
    """Network cost of a placement against a traffic matrix."""

    cross_machine_bytes: int
    local_bytes: int
    max_machine_share: float

    @property
    def total_bytes(self) -> int:
        """All accounted traffic."""
        return self.cross_machine_bytes + self.local_bytes

    @property
    def locality(self) -> float:
        """Fraction of bytes that stayed machine-local."""
        if self.total_bytes == 0:
            return 0.0
        return self.local_bytes / self.total_bytes


def evaluate_placement(matrix: TrafficMatrix,
                       placement: Placement) -> PlacementCost:
    """Bytes that cross the network under ``placement``.

    An event is free when its producer machine equals the machine its
    (function, key) slot is placed on; otherwise it pays its size on the
    wire — the quantity the paper wants to reduce.
    """
    cross = 0
    local = 0
    per_machine: Dict[str, int] = defaultdict(int)
    for slot, machine in placement.items():
        for producer, size_bytes in matrix.producers_of(slot).items():
            per_machine[machine] += size_bytes
            if producer == machine:
                local += size_bytes
            else:
                cross += size_bytes
    total = max(1, cross + local)
    max_share = max(per_machine.values(), default=0) / total
    return PlacementCost(cross_machine_bytes=cross, local_bytes=local,
                         max_machine_share=max_share)
