"""E8 — SSDs for the key-value store (Section 4.2).

The paper's three reasons for running Cassandra on SSDs:

1. cold start — "early update events may require many row fetches from
   the key-value store. Fast random access helps ... warming the slate
   cache";
2. concurrent compaction — "Muppet often needs random-seek I/O capacity
   to fetch uncached slates. Meanwhile, Cassandra also requires I/O
   capacity for periodic compactions";
3. write buffering — "we minimize disk I/O for writing ... if we devote
   the store's main memory to buffering writes".

Each is measured on our LSM node with the SSD and the HDD device model
(E8a-c), then end to end on a simulated cluster (E8d); a cell is one
device.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Mapping

from repro.campaign.claims import (
    Metrics,
    Row,
    by_param,
    e_row,
    failed,
    latency_ms,
    run_counting,
)
from repro.cluster import ClusterSpec
from repro.kvstore.device import StorageDevice
from repro.kvstore.node import StorageNode
from repro.sim import SimConfig, constant_rate
from repro.slates.manager import FlushPolicy


def _node(kind: str, **kwargs: int) -> StorageNode:
    """A node on the ``kind`` device whose clock advances 1 ms a reading."""
    ticks = itertools.count()
    device = StorageDevice.ssd() if kind == "ssd" else StorageDevice.hdd()
    return StorageNode(kind, device=device, clock=lambda: next(ticks) * 0.001, **kwargs)


def _cold_start(kind: str) -> Metrics:
    """Reason 1: reading N cold slates off disk to warm the cache."""
    slates = 5_000
    node = _node(kind, memtable_flush_bytes=1 << 30)
    for i in range(slates):
        node.put(f"user{i}", "U1", b"x" * 512)
    node.flush()  # everything on disk, cache cold
    warm_s = sum(node.get(f"user{i}", "U1")[1] for i in range(slates))
    return {"warm_s": round(warm_s, 3), "warm_read_ms": round(warm_s / slates * 1e3, 3)}


def _compaction(kind: str) -> Metrics:
    """Reason 2: random reads compete with compaction streaming I/O.
    Writes (forcing flushes and compactions) interleave with uncached
    reads."""
    node = _node(kind, memtable_flush_bytes=16 * 1024, compaction_threshold=4)
    read_cost, reads = 0.0, 0
    for i in range(4_000):
        node.put(f"k{i % 800}", "U1", b"y" * 256)
        if i % 10 == 0:
            read_cost += node.get(f"k{(i * 7) % 800}", "U1")[1]
            reads += 1
    return {
        "uncached_read_ms": round(read_cost / reads * 1e3, 3),  # mean
        "compactions": node.stats.compactions,
        "device_busy_s": round(node.device.stats.busy_time_s, 3),
    }


def _write_buffering(kind: str) -> Metrics:
    """Reason 3: hot-slate overwrites (20,000 writes to 50 slates)
    coalesce in the memtable, whatever the device under it."""
    node = _node(kind, memtable_flush_bytes=1 << 20)
    for i in range(20_000):
        node.put(f"hot{i % 50}", "U1", b"z" * 200)
    absorbed = node.absorbed_overwrites
    node.flush()
    return {"writes_absorbed": absorbed, "bytes_flushed": node.stats.bytes_flushed}


def _cluster(kind: str) -> Metrics:
    """End to end: write-through slates behind a tiny slate cache and a
    small kv memtable, so most fetches miss both and become random reads
    against on-disk SSTables — the paper's uncached-fetch path."""
    source = constant_rate(
        "S1", rate_per_s=2000, duration_s=0.5, key_fn=lambda i: f"u{i % 2000}"
    )
    config = SimConfig(
        flush_policy=FlushPolicy.write_through(),
        cache_slates_per_machine=100,
        kv_memtable_flush_bytes=16 * 1024,
        queue_capacity=200_000,
    )
    cluster = ClusterSpec.uniform(2, cores=4, storage=kind)
    latency = latency_ms(run_counting(source, cluster, config, 60.0)[1])
    return {f"cluster_{name}": value for name, value in latency.items()}


def device_cell(params: Mapping[str, Any], seed: int) -> Metrics:
    kind = str(params["device"])
    return {
        **_cold_start(kind),
        **_compaction(kind),
        **_write_buffering(kind),
        **_cluster(kind),
    }


def verify_devices(rows: List[Row]) -> List[str]:
    cells = by_param(rows, "device")
    ssd, hdd = cells["ssd"], cells["hdd"]
    raw_bytes = 20_000 * 200  # if every write had hit the disk
    return failed(
        (hdd["warm_s"] > 20 * ssd["warm_s"], "SSD warms the cache < 20x faster"),
        (hdd["device_busy_s"] > ssd["device_busy_s"], "the spindle has more headroom"),
        (ssd["writes_absorbed"] >= 19_000, "the memtable absorbed too little"),
        (ssd["bytes_flushed"] < raw_bytes / 50, "buffering cut disk bytes < 50x"),
        (hdd["cluster_p99_ms"] > ssd["cluster_p99_ms"], "HDD did not drag the tail"),
    )


SPECS = (
    e_row(
        "e8_ssd_vs_hdd",
        "E8a-d (SS4.2): fast random access helps the store respond to the "
        "cold-start read volume, warming the slate cache; SSDs provide the I/O "
        "capacity to sustain uncached slate fetches while compactions run; "
        "overwrites of the same row are inexpensive while the row is in memory, "
        "and delaying flushes minimizes disk writes; running the store on SSDs "
        "keeps end-to-end latency low despite kv-store I/O on the critical path.",
        device_cell,
        {"device": ["ssd", "hdd"]},
        verify_devices,
    ),
)
