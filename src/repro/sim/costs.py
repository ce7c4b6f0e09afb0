"""Service-time cost models for the cluster simulator.

The simulator executes real operator code but charges *virtual* time for
each action. The defaults below are calibrated to the paper's era and
claims: a cluster of tens of ~8-core machines sustains >100 M events/day
(~1.2 k events/s) with seconds of headroom and sub-2-second end-to-end
latency (Section 5). Per-event costs are sub-millisecond for framework
work, with application work scaled by each operator's ``cost_factor``.

Muppet 1.0 pays an extra inter-process hop per event: the Perl conductor
passes the event (and slate) to the JVM task processor and receives the
outputs back — "Passing data between processes ... can be computationally
wasteful" (Section 4.5). That is ``ipc_overhead_s``, charged only by the
1.0 engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CostModel:
    """Virtual service times (seconds) charged by the simulator.

    Attributes:
        source_service_s: M0's per-event cost (parse + hash + enqueue).
        map_service_s: Base CPU time per map invocation (multiplied by the
            operator's ``cost_factor``).
        update_service_s: Base CPU time per update invocation (likewise).
        ipc_overhead_s: Muppet 1.0 conductor↔task-processor serialization
            cost per event (0 for Muppet 2.0 — "Passing data between
            processes is eliminated within each machine").
        dispatch_lock_s: Cost of acquiring one queue lock at dispatch.
        slate_contention_s: Extra cost when a second worker contends for a
            slate already held (Muppet 2.0 allows at most two).
        context_switch_s: Per-dispatch scheduling overhead when a machine
            runs more worker processes than cores (Muppet 1.0's "more
            numerous processes can also require more context switching").
        slate_byte_cost_s: Serialization cost per slate byte on kv-store
            traffic — what makes megabyte slates slow (Section 5, bench
            E11).
    """

    source_service_s: float = 20e-6
    map_service_s: float = 150e-6
    update_service_s: float = 250e-6
    ipc_overhead_s: float = 200e-6
    dispatch_lock_s: float = 2e-6
    slate_contention_s: float = 30e-6
    context_switch_s: float = 15e-6
    slate_byte_cost_s: float = 2e-9

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if value < 0:
                raise ConfigurationError(f"cost {name} must be >= 0")

    def update_time(self, cost_factor: float = 1.0) -> float:
        """Service time of one update invocation, slate bytes aside."""
        return self.update_service_s * cost_factor
