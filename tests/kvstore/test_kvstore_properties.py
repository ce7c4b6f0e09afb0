"""Property-based tests: the LSM node must behave like a map, the
replicated store like a last-write-wins register."""

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
    st.tuples(st.sampled_from(["put", "put_ttl", "delete", "flush", "compact",
                               "advance"]),
              rows, columns, values),
    min_size=0, max_size=80)

#: What "put_ttl" writes with, and what "advance" moves the clock by
#: (every op moves it by one second, so timestamps order the writes).
TTL_S = 3.0
ADVANCE_S = 5.0


def run_node(ops, **node_kwargs):
    """Run ``ops``; returns the node and the model: for every key an op
    named, the value a read must return now (None: deleted or expired)."""
    now = [0.0]
    node = StorageNode("n", clock=lambda: now[0], **node_kwargs)
    written = {}  # key -> (value, expiry time or None)
    for op, row, column, value in ops:
        now[0] += 1.0
        written.setdefault((row, column), (None, None))
        if op == "put":
            node.put(row, column, value)
            written[(row, column)] = (value, None)
        elif op == "put_ttl":
            node.put(row, column, value, ttl=TTL_S)
            written[(row, column)] = (value, now[0] + TTL_S)
        elif op == "delete":
            node.delete(row, column)
            written[(row, column)] = (None, None)
        elif op == "flush":
            node.flush()
        elif op == "compact":
            node.compact()
        else:
            now[0] += ADVANCE_S
    model = {key: None if expiry is not None and now[0] > expiry else value
             for key, (value, expiry) in written.items()}
    return node, model


def assert_reads_match(node, model):
    for (row, column), expected in model.items():
        assert node.get(row, column)[0] == expected, (row, column)
    assert node.get("never", "written")[0] is None


BIG = b"x" * 200  # a base run the two small runs after it stay well under
#: A partial merge that dropped the tombstone would uncover the value.
DELETE_THEN_PARTIAL_MERGE = [
    ("put", "a", "U1", BIG), ("delete", "a", "U1", b""),
    ("put", "b", "U1", b"")]
#: ... and one that dropped the expired cell, the older immortal version.
EXPIRE_THEN_PARTIAL_MERGE = [
    ("put", "a", "U1", BIG), ("put_ttl", "a", "U1", b""),
    ("advance", "a", "U1", b""), ("put", "b", "U1", b"")]


class TestNodeActsLikeAMap:
    @settings(max_examples=60, deadline=None)
    @given(operations)
    def test_reads_match_model(self, ops):
        node, model = run_node(ops)
        assert_reads_match(node, model)

    @settings(max_examples=60, deadline=None)
    @given(operations, st.integers(min_value=2, max_value=4))
    @example(DELETE_THEN_PARTIAL_MERGE, 2)
    @example(EXPIRE_THEN_PARTIAL_MERGE, 2)
    def test_aggressive_flushing_changes_nothing(self, ops, width):
        """Tiny memtable (flush per write, so merges of both kinds all the
        time) must be semantically invisible: deleted, expired and
        never-written keys included."""
        node, model = run_node(ops, memtable_flush_bytes=1,
                               compaction_threshold=width)
        assert_reads_match(node, model)

    @settings(max_examples=30, deadline=None)
    @given(operations)
    def test_crash_recovery_preserves_acknowledged_writes(self, ops):
        node, model = run_node(ops)
        node.crash()
        node.recover()
        assert_reads_match(node, model)


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
#: At width 2 the tombstones' run and the one after it are merged beside
#: the older, larger run that holds the value: that merge must keep them.
FLUSH_ALL = [("flush", name) for name in NODES]
PARTIAL_MERGE_KEEPS_TOMBSTONE = [
    ("batch", [("a", b"x", None), ("b", b"x", None)], ALL), *FLUSH_ALL,
    ("delete", "a", ALL), *FLUSH_ALL,
    ("write", ("b", b"y", None), ALL), *FLUSH_ALL, ("read",)]


class TestClusterActsLikeALastWriteWinsRegister:
    """Whenever a read at ALL succeeds it returns the newest acknowledged
    mutation (None for a delete or an expired TTL), and afterwards every
    replica on its own — a read at ONE it serves — agrees.

    A mutation that raised QuorumError may still have reached a replica,
    so one newer than the newest acknowledged may be what is read.
    A full merge purges tombstones and expired cells, which is only safe
    once every replica has them (Cassandra's ``gc_grace`` assumption):
    the sequence compacts only while no hint is pending or was lost
    since the last full read. Partial merges purge nothing and may run at
    any time: one variant flushes into them (``compaction_threshold=2``).
    """

    @settings(max_examples=60, deadline=None)
    @given(cluster_ops, st.sampled_from([1000, 2]))
    @example(RESURRECTED_DELETE, 1000)
    @example(REPAIR_DROPPED_TTL, 2)
    @example(PARTIAL_MERGE_KEEPS_TOMBSTONE, 2)
    def test_reads_at_all_return_the_newest_acknowledged(self, ops, width):
        now = [0.0]
        store = ReplicatedKVStore(NODES, replication_factor=3,
                                  clock=lambda: now[0],
                                  compaction_threshold=width)
        # At width 2 a flush may merge. A base run far larger than the
        # sequence can write keeps those merges partial: they never purge.
        store.write("base", "c", b"." * 4096, consistency=ALL)
        store.flush_all()
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
