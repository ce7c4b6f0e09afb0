"""Outside-in layer tracer, loaded by the traced run only.

The program under test is not edited: :data:`TABLE` lists the *public*
functions at each layer boundary, :meth:`Tracer.install` swaps each for a
timing wrapper at class (or module) level, and :meth:`Tracer.uninstall`
puts the originals back. Patching happens before any runtime is built,
because the fused simulator path binds methods at construction.

Every wrapped call is a span. A span's *self* time is its duration minus
the part covered by the spans it called into (per-thread call stack), so
on any one thread the self times of all spans add up exactly to the
durations of that thread's root spans. Aggregates (calls, total, self)
cover the whole run; full span records are kept only while
:attr:`Tracer.keep` is set (the workloads keep the first 2 000 source
events) and are written out when the run ends.

Self times include the wrappers' own cost (about a microsecond per
call, charged partly to the caller); ``trace.overhead_ratio`` says how
much that is in total.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.event import Event

#: ``(layer, "module:Class.method" | "module:function")``. Layers are the
#: repo's modules. Functions the fused simulator loop inlines
#: (heap pushes, queue offers, dispatcher picks) never reach these
#: boundaries; their time stays in the caller's self time.
TABLE: Tuple[Tuple[str, str], ...] = (
    ("sim.des", "repro.sim.des:Simulator.schedule"),
    ("sim.des", "repro.sim.des:Simulator.schedule_in"),
    ("sim.des", "repro.sim.des:Simulator.schedule_call"),
    ("sim.des", "repro.sim.des:Simulator.schedule_call_in"),
    ("sim.des", "repro.sim.des:Simulator.schedule_cancellable"),
    ("sim.runtime", "repro.sim.runtime:SimRuntime.run"),
    ("muppet.local", "repro.muppet.local:LocalMuppet.ingest"),
    ("muppet.local", "repro.muppet.local:LocalMuppet.drain"),
    ("cluster.hashring", "repro.cluster.hashring:HashRing.lookup"),
    ("cluster.hashring", "repro.cluster.hashring:HashRing.preference_list"),
    ("muppet.dispatch", "repro.muppet.dispatch:TwoChoiceDispatcher.choose"),
    ("muppet.dispatch",
     "repro.muppet.dispatch:TwoChoiceDispatcher.choose_workers"),
    ("muppet.queues", "repro.muppet.queues:BoundedQueue.offer"),
    ("muppet.queues", "repro.muppet.queues:BoundedQueue.poll"),
    ("core.stream", "repro.core.stream:StreamRegistry.stamp"),
    ("core.operators", "bench.workloads.apps:ChainEcho.map"),
    ("core.operators", "bench.workloads.apps:ChainCount.update"),
    ("core.operators", "bench.workloads.apps:TweetMapper.map"),
    ("core.operators", "bench.workloads.apps:TweetUpdater.update"),
    ("slates.manager", "repro.slates.manager:SlateManager.get"),
    ("slates.manager", "repro.slates.manager:SlateManager.note_update"),
    ("slates.manager", "repro.slates.manager:SlateManager.flush_due"),
    ("slates.manager", "repro.slates.manager:SlateManager.flush_one"),
    ("slates.manager", "repro.slates.manager:SlateManager.flush_all_dirty"),
    ("slates.cache", "repro.slates.cache:SlateCache.get"),
    ("slates.cache", "repro.slates.cache:SlateCache.put"),
    ("slates.codec", "repro.slates.codec:CompressedJsonCodec.encode"),
    ("slates.codec", "repro.slates.codec:CompressedJsonCodec.decode"),
    ("slates.codec", "repro.slates.codec:JsonCodec.encode"),
    ("slates.codec", "repro.slates.codec:JsonCodec.decode"),
    ("kvstore.cluster", "repro.kvstore.cluster:ReplicatedKVStore.read"),
    ("kvstore.cluster", "repro.kvstore.cluster:ReplicatedKVStore.write"),
    ("kvstore.cluster",
     "repro.kvstore.cluster:ReplicatedKVStore.write_batch"),
    ("kvstore.node", "repro.kvstore.node:StorageNode.put"),
    ("kvstore.node", "repro.kvstore.node:StorageNode.put_many"),
    ("kvstore.node", "repro.kvstore.node:StorageNode.get"),
    ("kvstore.node", "repro.kvstore.node:StorageNode.flush"),
    ("kvstore.node", "repro.kvstore.node:StorageNode.compact"),
    ("kvstore.memtable", "repro.kvstore.memtable:Memtable.put"),
    ("kvstore.memtable", "repro.kvstore.memtable:Memtable.get"),
    ("kvstore.commitlog", "repro.kvstore.commitlog:CommitLog.append"),
    ("kvstore.commitlog", "repro.kvstore.commitlog:CommitLog.truncate"),
    ("kvstore.sstable", "repro.kvstore.sstable:SSTable.__init__"),
    ("kvstore.sstable", "repro.kvstore.sstable:SSTable.get"),
    ("kvstore.sstable", "repro.kvstore.sstable:SSTable.might_contain"),
    # node.py imported the function by name, so its global is the seam.
    ("kvstore.sstable", "repro.kvstore.node:merge_sstables"),
)

#: The layer of the benchmark's own driver code: each workload wraps its
#: timed phase in one root span so bench overhead is visible, not hidden.
DRIVER_LAYER = "bench.driver"

LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys([layer for layer, _ in TABLE] + [DRIVER_LAYER]))

#: Memory guard for the kept span records, per thread.
MAX_SPANS_PER_THREAD = 400_000

_MISSING = object()


def _resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> ``(Class, "attr")``;
    ``"pkg.mod:function"`` -> ``(module, "function")``."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *holders, attr = path.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    return owner, attr


class _ThreadState:
    __slots__ = ("tid", "stack", "agg", "spans", "next_id")

    def __init__(self, tid: int) -> None:
        self.tid = tid
        self.stack: List[list] = []
        #: function index -> [calls, total_ns, self_ns]
        self.agg: Dict[int, List[int]] = defaultdict(lambda: [0, 0, 0])
        self.spans: List[tuple] = []
        self.next_id = 0


class Tracer:
    """Span recorder plus the patch/unpatch bookkeeping.

    Args:
        event_spacing_s: Seconds between the workload's source events.
            An ``Event.ts`` divided by it is the request id: the index
            of the source event it derives from (operators add only
            microseconds per hop). ``None`` leaves event-derived ids off.
        clock: Nanosecond clock (tests substitute a scripted one).
    """

    def __init__(self, event_spacing_s: Optional[float] = None,
                 clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.event_spacing_s = event_spacing_s
        self.clock = clock
        #: While set, wrappers keep full span records (not only sums).
        self.keep = False
        self.names: List[Tuple[str, str]] = []
        self.counters: Dict[str, int] = defaultdict(int)
        #: Closed queue waits (offer -> poll of the same item), in ns.
        self.queue_waits_ns: List[int] = []
        self._queued: Dict[int, int] = {}
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._patched: List[Tuple[Any, str, Any]] = []
        self.epoch_ns = clock()

    # -- wrapping ---------------------------------------------------------------
    def _state(self) -> _ThreadState:
        with self._states_lock:
            state = _ThreadState(len(self._states) + 1)
            self._states.append(state)
        self._local.state = state
        return state

    def _event_request(self, args: tuple) -> Optional[int]:
        """Request id from the first argument that is (or carries, as the
        engines' work items do) an ``Event``."""
        for arg in args:
            event = arg if isinstance(arg, Event) else getattr(
                arg, "event", None)
            if isinstance(event, Event):
                return int(event.ts / self.event_spacing_s + 0.01)
        return None

    def wrap(self, layer: str, name: str, fn: Callable,
             request: Optional[Callable[[tuple], Optional[int]]] = None,
             hook: Optional[Callable[[tuple, Any, int], None]] = None,
             ) -> Callable:
        """Return ``fn`` wrapped in a span of ``layer``.

        ``request(args)`` yields the span's request id (spans without one
        inherit their parent's); ``hook(args, result, end_ns)`` runs after
        a call that returned, for counts taken at the same boundary.
        """
        index = len(self.names)
        self.names.append((layer, name))
        tracer = self
        local = self._local
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            frame = [0, 0, None]  # child_ns, span id, request id
            if tracer.keep and len(state.spans) < MAX_SPANS_PER_THREAD:
                state.next_id += 1
                frame[1] = (state.tid << 32) | state.next_id
                req = request(args) if request is not None else None
                if req is None and parent is not None:
                    req = parent[2]
                frame[2] = req
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                sums = state.agg[index]
                sums[0] += 1
                sums[1] += duration
                sums[2] += duration - frame[0]
                if frame[1]:
                    state.spans.append(
                        (frame[1], parent[1] if parent is not None else 0,
                         index, start, end, frame[2]))
            if hook is not None:
                hook(args, result, end)
            return result

        return wrapper

    # -- counts taken at the boundaries -------------------------------------------
    def _hook_for(self, target: str):
        counters = self.counters
        queued = self._queued
        waits = self.queue_waits_ns

        def offered(args, accepted, end_ns):
            if accepted:
                queued[id(args[1])] = end_ns

        def polled(args, item, end_ns):
            if item is not None:
                since = queued.pop(id(item), None)
                if since is not None:
                    waits.append(end_ns - since)

        def encoded(args, blob, end_ns):
            counters["codec.encoded_bytes"] += len(blob)

        def decoded(args, fields, end_ns):
            counters["codec.decoded_bytes"] += len(args[1])

        def raw_encoded(args, blob, end_ns):
            counters["codec.raw_bytes"] += len(blob)

        def written(args, result, end_ns):
            counters["kv.user_bytes"] += len(args[3])

        def batch_written(args, result, end_ns):
            counters["kv.user_bytes"] += sum(
                len(value) for _row, _column, value, _ttl in args[1])

        return {
            "repro.kvstore.cluster:ReplicatedKVStore.write": written,
            "repro.kvstore.cluster:ReplicatedKVStore.write_batch":
                batch_written,
            "repro.muppet.queues:BoundedQueue.offer": offered,
            "repro.muppet.queues:BoundedQueue.poll": polled,
            "repro.slates.codec:CompressedJsonCodec.encode": encoded,
            "repro.slates.codec:CompressedJsonCodec.decode": decoded,
            "repro.slates.codec:JsonCodec.encode": raw_encoded,
        }.get(target)

    # -- patching -----------------------------------------------------------------
    def install(self, layers: Optional[Iterable[str]] = None) -> None:
        """Patch every :data:`TABLE` row (or only those of ``layers``)."""
        wanted = None if layers is None else set(layers)
        request = (self._event_request
                   if self.event_spacing_s is not None else None)
        for layer, target in TABLE:
            if wanted is not None and layer not in wanted:
                continue
            owner, attr = _resolve(target)
            raw = vars(owner).get(attr, _MISSING)
            wrapped = self.wrap(layer, target.partition(":")[2],
                                getattr(owner, attr), request=request,
                                hook=self._hook_for(target))
            setattr(owner, attr, wrapped)
            self._patched.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every patched attribute to the very object it held
        (inherited attributes are removed again, not copied down)."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def reset(self) -> None:
        """Forget everything recorded so far (after an untimed warm-up
        that ran under the patches). Call between spans, not inside one."""
        for state in list(self._states):
            state.agg.clear()
            state.spans.clear()
        self.counters.clear()
        self.queue_waits_ns.clear()
        self._queued.clear()

    # -- results ------------------------------------------------------------------
    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "total_ns", "self_ns"}}`` over all threads."""
        out = {layer: {"calls": 0, "total_ns": 0, "self_ns": 0}
               for layer in LAYERS}
        for state in list(self._states):
            for index, (calls, total, self_ns) in list(state.agg.items()):
                row = out.setdefault(self.names[index][0],
                                     {"calls": 0, "total_ns": 0,
                                      "self_ns": 0})
                row["calls"] += calls
                row["total_ns"] += total
                row["self_ns"] += self_ns
        return out

    def by_function(self) -> List[Dict[str, Any]]:
        """Per wrapped function, summed over threads (result files)."""
        sums: Dict[int, List[int]] = defaultdict(lambda: [0, 0, 0])
        for state in list(self._states):
            for index, row in list(state.agg.items()):
                for i in range(3):
                    sums[index][i] += row[i]
        return [{"layer": self.names[i][0], "name": self.names[i][1],
                 "calls": row[0], "total_us": row[1] / 1e3,
                 "self_us": row[2] / 1e3}
                for i, row in sorted(sums.items())]

    def self_ns_of_current_thread(self) -> int:
        """Sum of self times recorded on the calling thread — equals the
        summed durations of that thread's root spans."""
        state = getattr(self._local, "state", None)
        if state is None:
            return 0
        return sum(row[2] for row in state.agg.values())

    def write_spans(self, path) -> int:
        """Write the kept spans as JSON lines, ordered by start time."""
        rows = []
        for state in list(self._states):
            for span_id, parent, index, start, end, req in state.spans:
                layer, name = self.names[index]
                rows.append((start, {
                    "id": span_id, "parent": parent or None,
                    "thread": state.tid, "layer": layer, "name": name,
                    "start_us": (start - self.epoch_ns) / 1e3,
                    "end_us": (end - self.epoch_ns) / 1e3,
                    "req": req,
                }))
        rows.sort(key=lambda pair: pair[0])
        with open(path, "w", encoding="utf-8") as handle:
            for _, row in rows:
                handle.write(json.dumps(row, separators=(",", ":")))
                handle.write("\n")
        return len(rows)
