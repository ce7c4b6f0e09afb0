"""Property-based tests: the LSM node must behave like a map, the
replicated store like a last-write-wins register."""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import QuorumError
from repro.kvstore.api import ConsistencyLevel
from repro.kvstore.cluster import ReplicatedKVStore
from repro.kvstore.node import StorageNode

rows = st.text(alphabet="abcdexyz", min_size=1, max_size=4)
columns = st.sampled_from(["U1", "U2", "U3"])
values = st.binary(min_size=0, max_size=64)

#: A workload: a list of (op, row, column, value) tuples.
operations = st.lists(
    st.tuples(st.sampled_from(["put", "delete", "flush", "compact"]),
              rows, columns, values),
    min_size=0, max_size=80)


def run_node(ops, **node_kwargs):
    counter = itertools.count()
    node = StorageNode("n", clock=lambda: float(next(counter)),
                       **node_kwargs)
    model = {}
    for op, row, column, value in ops:
        if op == "put":
            node.put(row, column, value)
            model[(row, column)] = value
        elif op == "delete":
            node.delete(row, column)
            model.pop((row, column), None)
        elif op == "flush":
            node.flush()
        else:
            node.compact()
    return node, model


class TestNodeActsLikeAMap:
    @settings(max_examples=60, deadline=None)
    @given(operations)
    def test_reads_match_model(self, ops):
        node, model = run_node(ops)
        for (row, column), expected in model.items():
            assert node.get(row, column)[0] == expected
        # Deleted/absent keys read as None.
        for op, row, column, _ in ops:
            if (row, column) not in model:
                assert node.get(row, column)[0] is None

    @settings(max_examples=30, deadline=None)
    @given(operations)
    def test_aggressive_flushing_changes_nothing(self, ops):
        """Tiny memtable (flush per write) must be semantically invisible."""
        node, model = run_node(ops, memtable_flush_bytes=1,
                               compaction_threshold=3)
        for (row, column), expected in model.items():
            assert node.get(row, column)[0] == expected

    @settings(max_examples=30, deadline=None)
    @given(operations)
    def test_crash_recovery_preserves_acknowledged_writes(self, ops):
        node, model = run_node(ops)
        node.crash()
        node.recover()
        for (row, column), expected in model.items():
            assert node.get(row, column)[0] == expected


# -- the replicated store ----------------------------------------------------
NODES = ["n0", "n1", "n2"]
keys = st.sampled_from(["a", "b"])
nodes = st.sampled_from(NODES)
levels = st.sampled_from(list(ConsistencyLevel))
cells = st.tuples(keys, st.sampled_from([b"x", b"y", b"z"]),
                  st.sampled_from([None, None, 5]))

#: One step of a cluster's life. Every mutation is stamped one second
#: after the step before it, so timestamps order them totally.
cluster_ops = st.lists(st.one_of(
    st.tuples(st.just("write"), cells, levels),
    st.tuples(st.just("batch"),
              st.lists(cells, min_size=1, max_size=2,
                       unique_by=lambda cell: cell[0]), levels),
    st.tuples(st.just("delete"), keys, levels),
    st.tuples(st.just("down"), nodes),
    st.tuples(st.just("up"), nodes),
    st.tuples(st.just("lose_hints")),
    st.tuples(st.just("flush"), nodes),
    st.tuples(st.just("compact"), nodes),
    st.tuples(st.just("advance"), st.sampled_from([1.0, 10.0])),
    st.tuples(st.just("read")),
), min_size=0, max_size=40)

ALL, QUORUM = ConsistencyLevel.ALL, ConsistencyLevel.QUORUM
#: Bug (a) of PR 22: a replica that missed a delete won the read and
#: repair overwrote the tombstones.
RESURRECTED_DELETE = [
    ("write", ("a", b"x", None), ALL), ("down", "n0"),
    ("delete", "a", QUORUM), ("lose_hints",), ("up", "n0"), ("read",)]
#: Bug (b): repair re-stamped the value and dropped its TTL.
REPAIR_DROPPED_TTL = [
    ("down", "n0"), ("write", ("a", b"x", 5), QUORUM), ("lose_hints",),
    ("up", "n0"), ("read",), ("advance", 10.0), ("read",)]


class TestClusterActsLikeALastWriteWinsRegister:
    """Whenever a read at ALL succeeds it returns the newest acknowledged
    mutation (None for a delete or an expired TTL), and afterwards every
    replica on its own — a read at ONE it serves — agrees.

    A mutation that raised QuorumError may still have reached a replica,
    so one newer than the newest acknowledged may be what is read.
    Compaction purges tombstones and expired cells, which is only safe
    once every replica has them (Cassandra's ``gc_grace`` assumption):
    the sequence compacts only while no hint is pending or was lost
    since the last full read.
    """

    @settings(max_examples=60, deadline=None)
    @given(cluster_ops)
    @example(RESURRECTED_DELETE)
    @example(REPAIR_DROPPED_TTL)
    def test_reads_at_all_return_the_newest_acknowledged(self, ops):
        now = [0.0]
        store = ReplicatedKVStore(NODES, replication_factor=3,
                                  clock=lambda: now[0],
                                  compaction_threshold=1000)
        history = {"a": [], "b": []}  # key -> [(ts, value, ttl, acked)]
        diverged = False

        def mutate(stamped, call):
            now[0] += 1.0
            try:
                call()
                acked = True
            except QuorumError:
                acked = False
            for key, value, ttl in stamped:
                history[key].append((now[0], value, ttl, acked))

        def visible(ts, value, ttl, _acked):
            expired = ttl is not None and now[0] - ts > ttl
            return None if expired else value

        def allowed(key):
            versions = history[key]
            acked = [i for i, version in enumerate(versions) if version[3]]
            if not acked:
                return {None} | {visible(*v) for v in versions}
            return {visible(*v) for v in versions[acked[-1]:]}

        for op, *args in ops:
            if op == "write":
                (key, value, ttl), level = args
                mutate([(key, value, ttl)], lambda: store.write(
                    key, "c", value, ttl=ttl, consistency=level))
            elif op == "batch":
                batch, level = args
                mutate(batch, lambda: store.write_batch(
                    [(key, "c", value, ttl) for key, value, ttl in batch],
                    consistency=level))
            elif op == "delete":
                key, level = args
                mutate([(key, None, None)],
                       lambda: store.delete(key, "c", level))
            elif op == "down":
                store.mark_down(args[0])
            elif op == "up":
                store.mark_up(args[0])
            elif op == "lose_hints":
                diverged = diverged or store.pending_hints() > 0
                store._hints.clear()
            elif op == "flush":
                store.nodes[args[0]].flush()
            elif op == "compact":
                if not diverged and store.pending_hints() == 0:
                    store.nodes[args[0]].compact()
            elif op == "advance":
                now[0] += args[0]
            elif all(not node.is_down for node in store.nodes.values()):
                for key in history:
                    value = store.read(key, "c", ALL).value
                    assert value in allowed(key), (key, history[key])
                    for name, node in store.nodes.items():
                        assert node.get(key, "c")[0] == value, (key, name)
                diverged = False
