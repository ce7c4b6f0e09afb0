"""Store operations only the tests need.

Nothing outside the tests deletes a cell or flushes a whole cluster, so
the store has no call for either. A tombstone is a cell with no value,
written through the path a value takes; the tests that check how
compaction, reopen, hints and read repair treat tombstones write them
here.
"""

from repro.kvstore.api import ConsistencyLevel
from repro.kvstore.cells import Cell


def tombstone(node, row, column):
    """Write a tombstone on one node; returns the foreground I/O time."""
    return node.apply([Cell(row, column, None, node.clock())])


def replicated_tombstone(store, row, column,
                         consistency=ConsistencyLevel.ONE):
    """Write a tombstone through the coordinator; returns the acks."""
    return store._replicate([Cell(row, column, None, store.clock())],
                            store.replicas_for(row), consistency).acks


def flush_every_node(store):
    """Flush every live node's memtable; returns the background cost."""
    return sum(node.flush() for _, node in sorted(store.nodes.items())
               if not node.is_down)
