"""Component micro-benchmarks (pytest-benchmark, wall clock).

Not paper experiments — these are the library's own performance
regression suite: the hot-path costs of the ring, dispatcher, codec,
LSM node, slate cache, and reference executor.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random

import pytest

from repro.apps.counting import count_app, count_events
from repro.cluster.hashring import HashRing, route_key
from repro.core import ReferenceExecutor
from repro.core.event import Event
from repro.core.slate import Slate, SlateKey, _json_size_fast
from repro.kvstore.bloom import BloomFilter, hash_pair
from repro.kvstore.cells import Cell
from repro.kvstore.commitlog import CommitLog
from repro.kvstore.node import StorageNode
from repro.kvstore.sstable import SSTable
from repro.muppet.dispatch import DispatchStats, TwoChoiceDispatcher
from repro.slates.cache import SlateCache
from repro.slates.codec import CompressedJsonCodec, JsonCodec


def test_micro_hashring_lookup(benchmark):
    ring = HashRing([f"m{i}" for i in range(16)])
    keys = itertools.cycle([route_key(f"user{i}", "U1")
                            for i in range(1000)])
    benchmark(lambda: ring.lookup(next(keys)))


def test_micro_dispatcher_choose(benchmark):
    dispatcher = TwoChoiceDispatcher(num_threads=8)
    lengths = [3, 1, 4, 1, 5, 9, 2, 6]
    processing = [None] * 8
    keys = itertools.cycle([f"user{i}" for i in range(1000)])
    benchmark(lambda: dispatcher.choose(next(keys), "U1", lengths,
                                        processing))


def test_micro_codec_encode(benchmark):
    codec = CompressedJsonCodec()
    slate = {"count": 12345, "interests": ["a", "b", "c"] * 10,
             "last_seen": 1234567.0}
    benchmark(codec.encode, slate)


def test_micro_codec_decode(benchmark):
    codec = CompressedJsonCodec()
    blob = codec.encode({"count": 12345,
                         "interests": ["a", "b", "c"] * 10})
    benchmark(codec.decode, blob)


def test_micro_plain_json_codec(benchmark):
    codec = JsonCodec()
    slate = {"count": 12345, "interests": ["a", "b", "c"] * 10}
    benchmark(codec.encode, slate)


@pytest.mark.parametrize("level", [1, 6, 9])
def test_micro_codec_zlib_levels(benchmark, level):
    """Compression-level sweep: encode cost vs blob size at zlib 1/6/9."""
    codec = CompressedJsonCodec(level=level)
    assert codec.level == level
    slate = {"count": 12345, "interests": ["a", "b", "c"] * 50,
             "history": [{"ts": i * 0.5, "tag": f"t{i % 7}"}
                         for i in range(40)]}
    blob = benchmark(codec.encode, slate)
    raw = len(JsonCodec().encode(slate))
    benchmark.extra_info["blob_bytes"] = len(blob)
    benchmark.extra_info["ratio"] = round(raw / len(blob), 2)
    assert codec.decode(blob) == slate


def test_micro_kvstore_put(benchmark):
    counter = itertools.count()
    node = StorageNode("n", clock=lambda: float(next(counter)),
                       memtable_flush_bytes=1 << 30)
    keys = itertools.cycle([f"row{i}" for i in range(500)])
    benchmark(lambda: node.put(next(keys), "U1", b"x" * 200))


def test_micro_kvstore_get_memtable(benchmark):
    counter = itertools.count()
    node = StorageNode("n", clock=lambda: float(next(counter)),
                       memtable_flush_bytes=1 << 30)
    for i in range(500):
        node.put(f"row{i}", "U1", b"x" * 200)
    keys = itertools.cycle([f"row{i}" for i in range(500)])
    benchmark(lambda: node.get(next(keys), "U1"))


def test_micro_kvstore_get_sstable(benchmark):
    counter = itertools.count()
    node = StorageNode("n", clock=lambda: float(next(counter)),
                       memtable_flush_bytes=1 << 30)
    for i in range(500):
        node.put(f"row{i}", "U1", b"x" * 200)
    node.flush()
    keys = itertools.cycle([f"row{i}" for i in range(500)])
    benchmark(lambda: node.get(next(keys), "U1"))


def _blob_cells(count: int, size: int):
    """Sorted cells with incompressible values, like flushed slates."""
    rng = random.Random(7)
    return [Cell(f"row{i:06d}", "U1", rng.randbytes(size), float(i))
            for i in range(count)]


def test_micro_sstable_build_and_persist(benchmark, tmp_path):
    """One flush: 1 000 cells x 400 B to a run file (bloom fill, record
    encoding, one streamed write, rename)."""
    cells = _blob_cells(1000, 400)
    table = benchmark(lambda: SSTable(cells, generation=1,
                                      path=tmp_path / "run.sst"))
    assert SSTable.load(tmp_path / "run.sst").cells() == table.cells()


def test_micro_commitlog_durable_append(benchmark, tmp_path):
    """What a durable ``put_many`` pays the log: 200 appends, then one
    flush to the OS."""
    cells = _blob_cells(200, 400)
    log = CommitLog(tmp_path / "node.commitlog")

    def batch():
        for cell in cells:
            log.append(cell)
        log.flush()

    # Each round starts from an empty file, as after a memtable flush.
    benchmark.pedantic(batch, setup=log.truncate, rounds=300)
    log.close()


def test_micro_bloom_add_probe_hashed(benchmark):
    """Filling and probing a filter from precomputed hash pairs — the
    compaction and multi-run read paths, which hash each key once."""
    pairs = [hash_pair(f"row{i}\x00U1") for i in range(1000)]

    def fill_and_probe():
        bloom = BloomFilter(expected_items=len(pairs))
        for h1, h2 in pairs:
            bloom.add_hashed(h1, h2)
        return sum(bloom.might_contain_hashed(h1, h2) for h1, h2 in pairs)

    assert benchmark(fill_and_probe) == len(pairs)


def test_micro_slate_cache_hit(benchmark):
    cache = SlateCache(capacity=1000)
    slate_keys = [SlateKey("U1", f"k{i}") for i in range(500)]
    for slate_key in slate_keys:
        cache.put(Slate(slate_key, {"count": 1}))
    cycle = itertools.cycle(slate_keys)
    benchmark(lambda: cache.get(next(cycle)))


# -- hot-path representation micro-benches (PR: compact slotted events) --
#
# These pin the costs the fast-forward overhaul is built on: Event as a
# NamedTuple (vs the historical frozen dataclass it replaced), the
# ``tuple.__new__`` stamping idiom the fused loop uses, SlateKey's C-level
# tuple hash, the arithmetic slate sizer vs json.dumps, and slotted stats
# counters. Regressions here show up magnified ~200k× in E1/E23 walls.


@dataclasses.dataclass(frozen=True)
class _FrozenDataclassEvent:
    """What Event used to be — kept only as the micro-bench yardstick."""

    sid: str
    ts: float
    key: str
    value: object = None
    seq: int = 0
    origin: object = None
    oseq: int = 0


def test_micro_event_alloc_frozen_dataclass_baseline(benchmark):
    benchmark(_FrozenDataclassEvent, "S1", 1.5, "user1", 42, 7, None, 0)


def test_micro_event_alloc_namedtuple(benchmark):
    benchmark(Event, "S1", 1.5, "user1", 42, 7, None, 0)


def test_micro_event_alloc_tuple_new(benchmark):
    """The fused-loop stamping idiom: bypass the named ctor entirely."""
    tuple_new = tuple.__new__
    made = tuple_new(Event, ("S1", 1.5, "user1", 42, 7, None, 0))
    assert made.sid == "S1" and made[1] == 1.5
    benchmark(lambda: tuple_new(Event, ("S1", 1.5, "user1", 42, 7, None, 0)))


def test_micro_slatekey_hash(benchmark):
    keys = [SlateKey("U1", f"user{i}") for i in range(1000)]
    benchmark(lambda: sum(map(hash, keys)))


def test_micro_slate_size_json_dumps_baseline(benchmark):
    data = {f"f{i}": i * 37 for i in range(12)}
    benchmark(lambda: len(json.dumps(data, separators=(",", ":"))))


def test_micro_slate_size_arithmetic(benchmark):
    """The _json_size_fast shortcut must agree with json.dumps exactly."""
    data = {f"f{i}": i * 37 for i in range(12)}
    assert _json_size_fast(data) == len(
        json.dumps(data, separators=(",", ":")))
    benchmark(_json_size_fast, data)


def test_micro_stats_counter_inc_slotted(benchmark):
    stats = DispatchStats()

    def bump():
        stats.dispatched += 1
        stats.to_primary += 1
        stats.queue_locks += 2

    benchmark(bump)


def test_micro_reference_executor_throughput(benchmark):
    events = count_events(1000, keys=32)

    def run():
        return ReferenceExecutor(count_app("micro")).run(list(events))

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.counters.processed == 2000
