"""Cassandra-like replicated LSM key-value store (paper Section 4.2).

Muppet persists slates in Cassandra, "at row k and column U" of a column
family. This package is a from-scratch stand-in with the features Muppet
relies on: memtable write buffering with a commit log, SSTable flushes and
size-tiered compaction, bloom-filtered point reads, per-write TTL collected
at compaction, SSD/HDD device cost models, and ring-partitioned replication
with ONE/QUORUM/ALL consistency.
"""

from repro.kvstore.api import ConsistencyLevel, ReadResult, WriteResult
from repro.kvstore.bloom import BloomFilter
from repro.kvstore.cells import Cell, CellKey
from repro.kvstore.cluster import ReplicatedKVStore
from repro.kvstore.commitlog import CommitLog
from repro.kvstore.device import (HDD_PROFILE, SSD_PROFILE, DeviceProfile,
                                  DeviceStats, StorageDevice, profile_for)
from repro.kvstore.memtable import Memtable
from repro.kvstore.node import NodeStats, StorageNode
from repro.kvstore.sstable import SSTable, merge_sstables

__all__ = [
    "BloomFilter",
    "Cell",
    "CellKey",
    "CommitLog",
    "ConsistencyLevel",
    "DeviceProfile",
    "DeviceStats",
    "HDD_PROFILE",
    "Memtable",
    "NodeStats",
    "ReadResult",
    "ReplicatedKVStore",
    "SSD_PROFILE",
    "SSTable",
    "StorageDevice",
    "StorageNode",
    "WriteResult",
    "merge_sstables",
    "profile_for",
]
