"""Storage device models: SSD versus spinning disk (Section 4.2).

The paper runs its Cassandra store on SSDs and explains why in three
bullets: fast random reads warm the slate cache at startup, random-seek
capacity serves uncached slate fetches *while compactions run*, and
buffering writes in memory keeps write I/O cheap. To reproduce that
experiment (bench E8) we need a device model that charges realistic costs
for random versus sequential I/O on both device classes.

A :class:`StorageDevice` is a pure cost model plus accounting: callers ask
for the *time* an operation takes and accumulate it into their own clock
(wall or virtual). Default parameters are round numbers for a ~2010-era
commodity SATA HDD and SATA SSD — the hardware generation the paper used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import ConfigurationError
from repro.obs.registry import CounterFields


@dataclass(frozen=True)
class DeviceProfile:
    """Latency/bandwidth parameters for one device class.

    Attributes:
        name: Profile label (``"ssd"``/``"hdd"``/custom).
        random_read_latency_s: Fixed cost per random read op (seek +
            rotation for HDD; flash lookup for SSD).
        sequential_bandwidth_bytes_per_s: Streaming throughput used for
            flushes, compaction reads/writes, and commit-log appends.
        max_iops: Random-operation ceiling (informational; derived
            latencies already encode it).
    """

    name: str
    random_read_latency_s: float
    sequential_bandwidth_bytes_per_s: float
    max_iops: float

    def random_read_time(self, size_bytes: int) -> float:
        """Seconds for one random read of ``size_bytes``."""
        return (self.random_read_latency_s
                + size_bytes / self.sequential_bandwidth_bytes_per_s)

    def sequential_time(self, size_bytes: int) -> float:
        """Seconds to stream ``size_bytes`` (flush/compaction/commit log)."""
        return size_bytes / self.sequential_bandwidth_bytes_per_s


#: ~2010 commodity SATA SSD: ~100 µs random read, ~250 MB/s streaming.
SSD_PROFILE = DeviceProfile(
    name="ssd",
    random_read_latency_s=100e-6,
    sequential_bandwidth_bytes_per_s=250e6,
    max_iops=10_000,
)

#: 7200 RPM SATA HDD: ~8 ms seek+rotation, ~100 MB/s streaming.
HDD_PROFILE = DeviceProfile(
    name="hdd",
    random_read_latency_s=8e-3,
    sequential_bandwidth_bytes_per_s=100e6,
    max_iops=120,
)

_PROFILES: Dict[str, DeviceProfile] = {
    "ssd": SSD_PROFILE,
    "hdd": HDD_PROFILE,
}


def profile_for(name: str) -> DeviceProfile:
    """Look up a built-in device profile by name (``"ssd"``/``"hdd"``)."""
    try:
        return _PROFILES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown device profile {name!r}; "
            f"choices: {sorted(_PROFILES)}"
        ) from None


@dataclass
class DeviceStats(CounterFields):
    """Cumulative I/O accounting for one device."""

    random_reads: int = 0
    sequential_bytes_read: int = 0
    sequential_bytes_written: int = 0
    busy_time_s: float = 0.0


class StorageDevice:
    """A device instance: a profile plus cumulative usage accounting.

    Every LSM operation on a :class:`repro.kvstore.node.StorageNode` calls
    one of the ``charge_*`` methods; the returned duration is the simulated
    service time of the I/O, which the caller adds to its clock. ``stats``
    accumulates totals so benches can report, e.g., compaction bytes versus
    read-serving ops (the paper's SSD argument).
    """

    def __init__(self, profile: DeviceProfile) -> None:
        self.profile = profile
        self.stats = DeviceStats()

    @classmethod
    def ssd(cls) -> "StorageDevice":
        """A fresh SSD-profile device."""
        return cls(SSD_PROFILE)

    @classmethod
    def hdd(cls) -> "StorageDevice":
        """A fresh HDD-profile device."""
        return cls(HDD_PROFILE)

    def charge_random_read(self, size_bytes: int) -> float:
        """Account one random read; returns its duration in seconds."""
        cost = self.profile.random_read_time(size_bytes)
        self.stats.random_reads += 1
        self.stats.busy_time_s += cost
        return cost

    def charge_sequential_read(self, size_bytes: int) -> float:
        """Account a streaming read (compaction input); returns seconds."""
        cost = self.profile.sequential_time(size_bytes)
        self.stats.sequential_bytes_read += size_bytes
        self.stats.busy_time_s += cost
        return cost

    def charge_sequential_write(self, size_bytes: int) -> float:
        """Account a streaming write (flush/compaction/commit log)."""
        cost = self.profile.sequential_time(size_bytes)
        self.stats.sequential_bytes_written += size_bytes
        self.stats.busy_time_s += cost
        return cost
