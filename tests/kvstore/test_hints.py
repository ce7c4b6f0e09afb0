"""Hinted handoff: writes missed during an outage catch up on rejoin."""

import itertools

import pytest

from repro.errors import QuorumError
from repro.kvstore.api import ConsistencyLevel
from repro.kvstore.cluster import ReplicatedKVStore
from tests.kvstore.test_cluster import (assert_charged_as_lone_nodes,
                                        count_charged_size)


def make_store(nodes=3, rf=3):
    counter = itertools.count()
    return ReplicatedKVStore([f"n{i}" for i in range(nodes)],
                             replication_factor=rf,
                             clock=lambda: float(next(counter)))


class TestHintedHandoff:
    def test_hint_stored_for_down_replica(self):
        store = make_store()
        replicas = store.replicas_for("row")
        store.mark_down(replicas[0])
        store.write("row", "col", b"v", consistency=ConsistencyLevel.QUORUM)
        assert store.hints_stored == 1

    def test_hints_delivered_on_rejoin(self):
        store = make_store()
        replicas = store.replicas_for("row")
        victim = replicas[0]
        store.mark_down(victim)
        store.write("row", "col", b"missed",
                    consistency=ConsistencyLevel.QUORUM)
        store.mark_up(victim)
        assert store.hints_delivered == 1
        value, _ = store.nodes[victim].get("row", "col")
        assert value == b"missed"

    def test_recovered_node_serves_reads_alone(self):
        """After handoff, even a ONE read that lands on the recovered
        node returns the latest value (no read repair needed)."""
        store = make_store()
        replicas = store.replicas_for("row")
        victim = replicas[0]
        store.write("row", "col", b"v1", consistency=ConsistencyLevel.ALL)
        store.mark_down(victim)
        store.write("row", "col", b"v2",
                    consistency=ConsistencyLevel.QUORUM)
        store.mark_up(victim)
        for other in replicas[1:]:
            store.mark_down(other)  # force the read onto the victim
        assert store.read("row", "col",
                          ConsistencyLevel.ONE).value == b"v2"

    def test_tombstone_hints(self):
        store = make_store()
        replicas = store.replicas_for("row")
        victim = replicas[0]
        store.write("row", "col", b"v", consistency=ConsistencyLevel.ALL)
        store.mark_down(victim)
        store.delete("row", "col", ConsistencyLevel.QUORUM)
        store.mark_up(victim)
        value, _ = store.nodes[victim].get("row", "col")
        assert value is None

    def test_hint_buffer_bounded(self):
        store = make_store()
        store.max_hints_per_node = 10
        replicas = store.replicas_for("row")
        store.mark_down(replicas[0])
        for i in range(50):
            store.write("row", f"col{i}", b"v",
                        consistency=ConsistencyLevel.QUORUM)
        assert len(store._hints[replicas[0]]) == 10

    def test_overflow_evicts_oldest_and_counts(self):
        """The bounded deque drops the *oldest* hint on overflow and
        counts each eviction; the newest writes survive to delivery."""
        store = make_store()
        store.max_hints_per_node = 10
        victim = store.replicas_for("row")[0]
        store.mark_down(victim)
        for i in range(50):
            store.write("row", f"col{i}", b"v",
                        consistency=ConsistencyLevel.QUORUM)
        assert store.hints_stored == 50
        assert store.hints_evicted == 40
        assert store.pending_hints(victim) == 10
        kept = [hint.column for hint in store._hints[victim]]
        assert kept == [f"col{i}" for i in range(40, 50)]  # newest 10
        store.mark_up(victim)
        assert store.hints_delivered == 10
        assert store.pending_hints() == 0
        value, _ = store.nodes[victim].get("row", "col49")
        assert value == b"v"

    def test_pending_hints_accounting(self):
        store = make_store(nodes=4, rf=3)
        replicas = store.replicas_for("row")
        store.mark_down(replicas[0])
        store.mark_down(replicas[1])
        store.write("row", "col", b"v", consistency=ConsistencyLevel.ONE)
        assert store.pending_hints(replicas[0]) == 1
        assert store.pending_hints(replicas[1]) == 1
        assert store.pending_hints("nobody") == 0
        assert store.pending_hints() == 2
        store.mark_up(replicas[0])
        assert store.pending_hints() == 1

    def test_natural_replicas_do_not_migrate_during_outage(self):
        """Rows stay with their natural replica set; the down member is
        hinted, not replaced (Cassandra semantics)."""
        store = make_store(nodes=4, rf=3)
        before = store.replicas_for("row")
        store.mark_down(before[0])
        after = store.replicas_for("row")
        assert after == before

    def test_delivered_hint_keeps_write_ts_and_ttl(self):
        """Handoff delivers the cell the coordinator stamped, not a fresh
        write: the TTL still counts from the original write time."""
        now = [0.0]
        store = ReplicatedKVStore(["n0", "n1", "n2"], replication_factor=3,
                                  clock=lambda: now[0])
        victim = store.replicas_for("row")[0]
        store.mark_down(victim)
        now[0] = 1.0
        store.write("row", "col", b"v", ttl=10,
                    consistency=ConsistencyLevel.QUORUM)
        now[0] = 5.0
        store.mark_up(victim)
        assert store.hints_delivered == 1
        assert store.nodes[victim].get("row", "col")[0] == b"v"
        now[0] = 12.0  # 11 s after the write, 7 s after the delivery
        assert store.nodes[victim].get("row", "col")[0] is None
        delivered, _ = store.nodes[victim].lookup("row", "col")
        assert (delivered.write_ts, delivered.ttl) == (1.0, 10)


class TestHintsChargedAsBefore:
    """The coordinator prices a cell once; a delivered hint prices its
    own cell, and the rejoined node's log and device read as if it had
    applied the cells alone."""

    @staticmethod
    def outage(store):
        """Miss a write, a batch and a delete on the replica first in
        line for ``row``; at rf 1 the writes fail but stay hinted."""
        victim = store.replicas_for("row")[0]
        store.write("row", "old", b"v0", ttl=30,
                    consistency=ConsistencyLevel.ALL)
        store.mark_down(victim)
        for mutate in (
                lambda: store.write("row", "col", b'q"\\\x00\xff'),
                lambda: store.write_batch([("row", "a", b"x" * 40, 2.5),
                                           ("row", "b", b"y", None)]),
                lambda: store.delete("row", "old")):
            try:
                mutate()
            except QuorumError:
                assert store.replication_factor == 1
        return victim

    @pytest.mark.parametrize("rf", [1, 2, 3])
    def test_delivered_hints_charge_as_a_lone_node(self, rf):
        store = make_store(rf=rf)
        victim = self.outage(store)
        store.mark_up(victim)
        assert store.hints_delivered == 4
        assert store.nodes[victim].get("row", "col")[0] == b'q"\\\x00\xff'
        assert_charged_as_lone_nodes(store)

    @pytest.mark.parametrize("rf", [1, 2, 3])
    def test_cells_priced_once_per_write_and_once_per_hint(self, rf,
                                                           monkeypatch):
        store = make_store(rf=rf)
        calls = count_charged_size(monkeypatch)
        victim = self.outage(store)
        assert len(calls) == 5  # five cells written, whatever the rf
        store.mark_up(victim)
        assert len(calls) == 9  # and four hints delivered
