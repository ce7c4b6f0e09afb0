"""Replicated store: placement, quorum levels, failures, read repair."""

import itertools

import pytest

from repro.cluster.hashring import HashRing
from repro.errors import ConfigurationError, QuorumError
from repro.kvstore import cluster, commitlog
from repro.kvstore.api import ConsistencyLevel
from repro.kvstore.cluster import ReplicatedKVStore
from repro.kvstore.node import StorageNode
from tests.kvstore.writes import flush_every_node, replicated_tombstone


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

    def test_replica_sets_follow_every_ring_change(self):
        """The replica sets a store serves (memoized or not) are the
        ring's current ones after an add, a remove, and an exclude then
        restore — each asked warm, after the previous answer."""
        store = make_store(nodes=4, rf=3)
        rows = [f"row{i}" for i in range(40)]

        def fresh():
            ring = HashRing(sorted(store._ring.members))
            return {row: ring.preference_list(row, 3) for row in rows}

        def served():
            return {row: list(store.replicas_for(row)) for row in rows}

        before = served()
        assert before == fresh()
        store._ring.add("n9")
        assert served() == fresh() != before
        store._ring.remove("n1")
        assert served() == fresh()
        after_remove = served()
        victim = store.replicas_for("row0")[0]
        store.mark_down(victim)
        assert served() == after_remove  # natural sets keep the down node
        store.mark_up(victim)
        assert served() == after_remove == fresh()


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
        replicated_tombstone(store, "r", "c", ConsistencyLevel.ALL)
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
        assert flush_every_node(store) >= 0.0
        assert all(node.compact() >= 0.0 for node in store.nodes.values())

    def test_total_accounting(self):
        store = make_store(nodes=2, rf=2)
        store.write("r", "c", b"v", consistency=ConsistencyLevel.ALL)
        # One cell per replica.
        assert sum(node.total_cells() for node in store.nodes.values()) == 2
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
        replicated_tombstone(store, "gone", "U1")
        flush_every_node(store)  # scan must reach into SSTables too
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


def make_timed_store(nodes=3, rf=3):
    """A store on a clock the test sets: ``now[0] = t``."""
    now = [0.0]
    store = ReplicatedKVStore([f"n{i}" for i in range(nodes)],
                              replication_factor=rf, clock=lambda: now[0])
    return store, now


class TestRepairCarriesTheCell:
    """Read repair reconciles and writes back *cells*: a tombstone wins
    like any other version, and the winner keeps its timestamp and TTL."""

    @pytest.mark.parametrize("level", [ConsistencyLevel.ALL,
                                       ConsistencyLevel.QUORUM])
    def test_missed_delete_is_not_resurrected(self, level):
        store, now = make_timed_store()
        replicas = store.replicas_for("r")
        victim = replicas[0]  # first in preference: every read asks it
        now[0] = 1.0
        store.write("r", "c", b"v", consistency=ConsistencyLevel.ALL)
        store.mark_down(victim)
        now[0] = 2.0
        replicated_tombstone(store, "r", "c", ConsistencyLevel.QUORUM)
        store._hints.clear()  # the hint is lost: only repair can heal
        store.mark_up(victim)
        now[0] = 3.0
        assert store.nodes[victim].get("r", "c")[0] == b"v"  # really stale
        assert store.read("r", "c", level).value is None
        for name in replicas:
            cell, _ = store.nodes[name].lookup("r", "c")
            assert cell.is_tombstone and cell.write_ts == 2.0, name

    def test_repair_keeps_write_ts_and_ttl(self):
        store, now = make_timed_store()
        replicas = store.replicas_for("r")
        victim = replicas[2]
        store.mark_down(victim)
        store.write("r", "c", b"v", ttl=10,
                    consistency=ConsistencyLevel.QUORUM)  # at t=0
        store._hints.clear()
        store.mark_up(victim)
        now[0] = 2.0
        assert store.read("r", "c", ConsistencyLevel.ALL).value == b"v"
        now[0] = 50.0
        for name in replicas:
            assert store.nodes[name].get("r", "c")[0] is None, name
        assert store.read("r", "c").value is None
        repaired, _ = store.nodes[victim].lookup("r", "c")
        assert (repaired.write_ts, repaired.ttl) == (0.0, 10)

    def test_repair_leaves_a_newer_skipped_replica_alone(self):
        """QUORUM asks two of three; the third may hold a newer write
        (made while the other two were down). Repair must not clobber it."""
        store, now = make_timed_store()
        first, second, third = store.replicas_for("r")
        now[0] = 1.0
        store.write("r", "c", b"old", consistency=ConsistencyLevel.ALL)
        store.mark_down(first)
        store.mark_down(second)
        now[0] = 2.0
        store.write("r", "c", b"new")  # ONE: only `third` takes it
        store._hints.clear()
        store.mark_up(first)
        store.mark_up(second)
        now[0] = 3.0
        assert store.read("r", "c", ConsistencyLevel.QUORUM).value == b"old"
        assert store.nodes[third].get("r", "c")[0] == b"new"
        assert store.read("r", "c", ConsistencyLevel.ALL).value == b"new"

    def test_batch_and_single_writes_share_one_result_type(self):
        store = make_store()
        single = store.write("r", "c", b"v", consistency=ConsistencyLevel.ALL)
        batch = store.write_batch([("r", "c", b"v", None),
                                   ("r2", "c", b"v", None)],
                                  consistency=ConsistencyLevel.ALL)
        assert type(batch) is type(single)
        assert batch.acks == 3 and batch.cost_s >= single.cost_s
        assert store.write_batch([]).acks == 0


def assert_charged_as_lone_nodes(store: ReplicatedKVStore) -> None:
    """Every node's device reads what a lone node applying the cells
    that node logged records on its own: the commit-log bytes a
    coordinator priced equal the ones the node prices."""
    for name, node in store.nodes.items():
        lone = StorageNode("lone")
        lone.apply(list(node._log.replay()))
        assert (node.device.stats.sequential_bytes_written
                == lone.device.stats.sequential_bytes_written), name


def count_charged_size(monkeypatch) -> list:
    """Record every ``charged_size`` call, the coordinator's and the
    commit log's; returns the list the calls append their cell to."""
    calls = []
    real = commitlog.charged_size

    def counting(cell):
        calls.append(cell)
        return real(cell)

    monkeypatch.setattr(cluster, "charged_size", counting)
    monkeypatch.setattr(commitlog, "charged_size", counting)
    return calls


class TestReplicasChargedOnce:
    """The coordinator prices a cell once for all its replicas; each
    replica's log and device must still be charged as before."""

    @pytest.mark.parametrize("rf", [1, 2, 3])
    def test_writes_deletes_and_repairs_charge_as_a_lone_node(self, rf):
        store = make_store(nodes=4, rf=rf)
        store.write("r1", "c", b"v1", ttl=30, consistency=ConsistencyLevel.ALL)
        store.write_batch([("r2", "c", b'q"\\\x00\xff\n', None),
                           ("r3", "U1", b"x" * 40, 2.5),
                           ("r1", "c", b"v2", None)],
                          consistency=ConsistencyLevel.ALL)
        replicated_tombstone(store, "r2", "c", ConsistencyLevel.ALL)
        if rf > 1:
            stale = store.replicas_for("r4")[-1]
            store.mark_down(stale)
            store.write("r4", "c", b"fresh")
            store._hints.clear()  # only read repair can heal `stale`
            store.mark_up(stale)
            assert store.read("r4", "c", ConsistencyLevel.ALL).value == b"fresh"
            assert store.nodes[stale].get("r4", "c")[0] == b"fresh"
        assert_charged_as_lone_nodes(store)

    @pytest.mark.parametrize("rf", [1, 2, 3])
    def test_charged_size_runs_once_per_cell_per_write(self, rf,
                                                       monkeypatch):
        store = make_store(nodes=4, rf=rf)
        calls = count_charged_size(monkeypatch)
        store.write("r1", "c", b"v", consistency=ConsistencyLevel.ALL)
        assert len(calls) == 1
        store.write_batch([(f"r{i}", "c", b"v", None) for i in range(5)],
                          consistency=ConsistencyLevel.ALL)
        assert len(calls) == 6
        replicated_tombstone(store, "r1", "c", ConsistencyLevel.ALL)
        assert len(calls) == 7
