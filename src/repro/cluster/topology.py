"""Cluster topology descriptions shared by engines and the simulator.

Section 3: "We assume a hardware platform similar to MapReduce, i.e., a
cluster of commodity machines. In practice, the machines need to be more
memory-heavy and less disk-heavy than in a MapReduce cluster." A topology
here is a set of :class:`MachineSpec` plus a network model; the simulator
realizes it with virtual time, while the local runtime treats it as a
single machine with one worker pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MachineSpec:
    """One commodity machine in the cluster.

    Attributes:
        name: Unique machine name (e.g. ``"m03"``).
        cores: CPU cores; bounds the worker-thread pool in Muppet 2.0
            ("the number may be as large as the number of CPU cores
            available on a machine", Section 4.5).
        storage: ``"ssd"`` or ``"hdd"`` — the device backing the kv-store
            node co-located on this machine (Section 4.2 runs Cassandra
            on SSDs).
    """

    name: str
    cores: int = 8
    storage: str = "ssd"

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigurationError(f"{self.name}: cores must be >= 1")
        if self.storage not in ("ssd", "hdd"):
            raise ConfigurationError(
                f"{self.name}: storage must be 'ssd' or 'hdd', "
                f"got {self.storage!r}"
            )


@dataclass(frozen=True)
class NetworkSpec:
    """Commodity gigabit-Ethernet network model (Section 6).

    Attributes:
        latency_s: One-way latency for a small message between two
            machines. Loopback traffic (same machine) is free.
        bandwidth_bytes_per_s: Per-link bandwidth; large events pay a
            serialization delay of ``size / bandwidth``.
    """

    latency_s: float = 0.0005            # 0.5 ms LAN hop
    bandwidth_bytes_per_s: float = 125e6  # 1 Gbit/s

    def transfer_time(self, size_bytes: int, same_machine: bool) -> float:
        """Seconds to move ``size_bytes`` from one worker to another."""
        if same_machine:
            return 0.0
        return self.latency_s + size_bytes / self.bandwidth_bytes_per_s


@dataclass
class ClusterSpec:
    """A named set of machines plus their interconnect."""

    machines: List[MachineSpec]
    network: NetworkSpec = field(default_factory=NetworkSpec)

    def __post_init__(self) -> None:
        if not self.machines:
            raise ConfigurationError("cluster must have at least one machine")
        names = [m.name for m in self.machines]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"duplicate machine names in {names}")

    @classmethod
    def uniform(cls, count: int, cores: int = 8, storage: str = "ssd",
                network: Optional[NetworkSpec] = None) -> "ClusterSpec":
        """Build a homogeneous cluster of ``count`` identical machines."""
        machines = [
            MachineSpec(f"m{i:03d}", cores=cores, storage=storage)
            for i in range(count)
        ]
        return cls(machines, network or NetworkSpec())

    def machine(self, name: str) -> MachineSpec:
        """Look up a machine by name."""
        for spec in self.machines:
            if spec.name == name:
                return spec
        raise ConfigurationError(f"unknown machine {name!r}")

    def names(self) -> List[str]:
        """All machine names, in declaration order."""
        return [m.name for m in self.machines]

    def total_cores(self) -> int:
        """Sum of cores across the cluster."""
        return sum(m.cores for m in self.machines)
