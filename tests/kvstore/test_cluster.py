"""Replicated store: placement, quorum levels, failures, read repair."""

import itertools

import pytest

from repro.errors import ConfigurationError, QuorumError
from repro.kvstore.api import ConsistencyLevel
from repro.kvstore.cluster import ReplicatedKVStore


def make_clock():
    counter = itertools.count()
    return lambda: float(next(counter))


def make_store(nodes=4, rf=3, **kwargs) -> ReplicatedKVStore:
    kwargs.setdefault("clock", make_clock())
    return ReplicatedKVStore([f"n{i}" for i in range(nodes)],
                             replication_factor=rf, **kwargs)


class TestConsistencyLevels:
    def test_required_acks(self):
        assert ConsistencyLevel.ONE.required_acks(3) == 1
        assert ConsistencyLevel.QUORUM.required_acks(3) == 2
        assert ConsistencyLevel.QUORUM.required_acks(5) == 3
        assert ConsistencyLevel.ALL.required_acks(3) == 3

    def test_invalid_rf(self):
        with pytest.raises(ConfigurationError):
            ConsistencyLevel.ONE.required_acks(0)


class TestPlacement:
    def test_rf_distinct_replicas(self):
        store = make_store(nodes=5, rf=3)
        replicas = store.replicas_for("row1")
        assert len(replicas) == 3
        assert len(set(replicas)) == 3

    def test_rf_capped_at_cluster_size(self):
        store = make_store(nodes=2, rf=3)
        assert store.replication_factor == 2

    def test_write_lands_on_replica_set(self):
        store = make_store()
        result = store.write("row", "col", b"v",
                             consistency=ConsistencyLevel.ALL)
        assert result.acks == 3
        holders = [name for name, node in store.nodes.items()
                   if node.get("row", "col")[0] == b"v"]
        assert sorted(holders) == sorted(result.replicas)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ConfigurationError):
            ReplicatedKVStore([])


class TestReadWrite:
    def test_roundtrip(self):
        store = make_store()
        store.write("r", "c", b"hello")
        assert store.read("r", "c").value == b"hello"

    def test_read_absent(self):
        assert make_store().read("r", "c").value is None

    def test_last_write_wins(self):
        store = make_store()
        store.write("r", "c", b"v1")
        store.write("r", "c", b"v2")
        assert store.read("r", "c", ConsistencyLevel.ALL).value == b"v2"

    def test_delete(self):
        store = make_store()
        store.write("r", "c", b"v")
        store.delete("r", "c", ConsistencyLevel.ALL)
        assert store.read("r", "c", ConsistencyLevel.ALL).value is None

    def test_ttl_write_expires(self):
        store = make_store()
        store.write("r", "c", b"v", ttl=0.5)  # clock advances 1.0/call
        for _ in range(3):
            store.clock()
        assert store.read("r", "c").value is None


class TestFailures:
    def test_quorum_survives_one_failure(self):
        store = make_store(nodes=4, rf=3)
        result = store.write("r", "c", b"v", consistency=ConsistencyLevel.ALL)
        store.mark_down(result.replicas[0])
        read = store.read("r", "c", ConsistencyLevel.QUORUM)
        assert read.value == b"v"

    def test_all_fails_with_replica_down(self):
        store = make_store(nodes=3, rf=3)
        result = store.write("r", "c", b"v", consistency=ConsistencyLevel.ALL)
        store.mark_down(result.replicas[0])
        with pytest.raises(QuorumError):
            store.write("r", "c", b"v2", consistency=ConsistencyLevel.ALL)

    def test_quorum_fails_with_majority_down(self):
        store = make_store(nodes=3, rf=3)
        store.write("r", "c", b"v")
        store.mark_down("n0")
        store.mark_down("n1")
        with pytest.raises(QuorumError):
            store.read("r", "c", ConsistencyLevel.QUORUM)

    def test_one_still_succeeds_with_majority_down(self):
        store = make_store(nodes=3, rf=3)
        store.write("r", "c", b"v", consistency=ConsistencyLevel.ALL)
        store.mark_down("n0")
        store.mark_down("n1")
        assert store.read("r", "c", ConsistencyLevel.ONE).value == b"v"

    def test_recovered_node_rejoins(self):
        store = make_store(nodes=3, rf=3)
        store.write("r", "c", b"v", consistency=ConsistencyLevel.ALL)
        store.mark_down("n0")
        store.mark_up("n0")
        assert store.read("r", "c", ConsistencyLevel.ALL).value == b"v"

    def test_writes_during_outage_reach_survivors(self):
        store = make_store(nodes=4, rf=3)
        replicas = store.replicas_for("r")
        store.mark_down(replicas[0])
        result = store.write("r", "c", b"v", consistency=ConsistencyLevel.QUORUM)
        assert result.acks >= 2


class TestReadRepair:
    def test_stale_replica_repaired_on_quorum_read(self):
        store = make_store(nodes=3, rf=3)
        store.write("r", "c", b"v1", consistency=ConsistencyLevel.ALL)
        # One replica misses the second write (simulated outage).
        replicas = store.replicas_for("r")
        store.mark_down(replicas[2])
        store.write("r", "c", b"v2", consistency=ConsistencyLevel.QUORUM)
        store.mark_up(replicas[2])
        # Quorum read sees v2 and repairs.
        assert store.read("r", "c", ConsistencyLevel.ALL).value == b"v2"
        value, _ = store.nodes[replicas[2]].get("r", "c")
        assert value == b"v2"


class TestMaintenance:
    def test_flush_all_and_compact_all(self):
        store = make_store()
        for i in range(20):
            store.write(f"r{i}", "c", b"v" * 50)
        assert store.flush_all() >= 0.0
        assert all(node.compact() >= 0.0 for node in store.nodes.values())

    def test_total_accounting(self):
        store = make_store(nodes=2, rf=2)
        store.write("r", "c", b"v", consistency=ConsistencyLevel.ALL)
        assert store.total_cells() == 2  # one per replica
        assert store.stored_bytes() > 0

    def test_stats_by_node(self):
        store = make_store()
        store.write("r", "c", b"v")
        stats = store.stats_by_node()
        assert set(stats) == {"n0", "n1", "n2", "n3"}
        assert sum(s["puts"] for s in stats.values()) == 3


class TestColumnCells:
    def test_newest_live_cell_per_row(self):
        store = make_store(nodes=2, rf=2)
        store.write("r1", "U1", b"old", consistency=ConsistencyLevel.ALL)
        store.write("r1", "U1", b"new", consistency=ConsistencyLevel.ALL)
        store.write("r2", "U1", b"only")
        store.write("r3", "other", b"x")
        cells = store.column_cells("U1")
        assert set(cells) == {"r1", "r2"}
        assert cells["r1"].value == b"new"

    def test_excludes_tombstones_and_survives_flush(self):
        store = make_store(nodes=2, rf=2)
        store.write("gone", "U1", b"v", consistency=ConsistencyLevel.ALL)
        store.write("kept", "U1", b"v", consistency=ConsistencyLevel.ALL)
        store.delete("gone", "U1")
        store.flush_all()  # scan must reach into SSTables too
        assert set(store.column_cells("U1")) == {"kept"}

    def test_down_node_is_skipped(self):
        store = make_store(nodes=2, rf=1)
        for i in range(8):
            store.write(f"r{i}", "U1", b"v")
        before = set(store.column_cells("U1"))
        assert before == {f"r{i}" for i in range(8)}
        store.mark_down("n0")
        after = set(store.column_cells("U1"))
        assert after < before  # rf=1: the down node's rows disappear
