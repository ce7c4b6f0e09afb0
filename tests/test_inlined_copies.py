"""Every hand-inlined copy names its original and is held to it.

The per-event paths avoid call frames by copying small methods into
their callers: a slate-cache hit, a queue offer, a stamp, a size sum.
Each copy in ``sim/``, ``muppet/``, ``core/``, ``kvstore/`` and ``slates/``
carries a ``# inlines: module:Qual.name`` line naming the code it
copies. This table-driven test

* resolves every marker by import plus ``getattr``;
* fails on any ``# hot-path`` function that writes a private slot of
  another object without carrying a marker;
* runs one check per marker, which feeds the copy and its original the
  same inputs and compares what each leaves behind (a stat, a size, a
  heap entry, an event).

A failing check is named after the marker whose copy drifted.
"""

import ast
import importlib
import itertools
import random
import re
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List

import pytest

from repro.apps.counting import count_app
from repro.cluster import ClusterSpec
from repro.core.application import Application
from repro.core.event import Event, derive_origin
from repro.core.operators import Context, Mapper, Updater
from repro.core.slate import Slate, SlateKey
from repro.errors import SlateTooLargeError
from repro.kvstore.cells import Cell
from repro.kvstore.commitlog import _json_number_len, charged_size
from repro.kvstore.memtable import Memtable
from repro.muppet.dispatch import TwoChoiceDispatcher
from repro.muppet.local import LocalMuppet
from repro.muppet.queues import BoundedQueue
from repro.obs import LatencyRecorder
from repro.sim import SimConfig, SimRuntime
from repro.sim.des import SchedulerHook
from repro.sim.runtime import _Envelope
from repro.sim.sources import Source
from repro.slates.cache import SlateCache
from repro.slates.codec import DEFAULT_CODEC
from repro.slates.manager import FlushPolicy, SlateManager

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SCANNED = ("sim", "muppet", "core", "kvstore", "slates")
MARKER = re.compile(r"^\s*# inlines: (\S+)\s*$")
HOT = "# hot-path"
#: Names a ``# hot-path`` function's owner goes by: ``self``, and ``rt``,
#: the compiled closures' name for the runtime that compiled them.
OWN = {"self", "rt"}


def _files() -> List[Path]:
    return sorted(path for package in SCANNED
                  for path in (SRC / package).rglob("*.py"))


def markers() -> Dict[str, List[str]]:
    """Marker target -> the ``path:line`` sites that carry it."""
    found: Dict[str, List[str]] = {}
    for path in _files():
        for number, line in enumerate(path.read_text().splitlines(), 1):
            match = MARKER.match(line)
            if match:
                found.setdefault(match.group(1), []).append(
                    f"{path.relative_to(SRC)}:{number}")
    return found


def resolve(target: str):
    module, _, qualname = target.partition(":")
    owner = importlib.import_module(module)
    for name in qualname.split("."):
        owner = getattr(owner, name)
    return owner


# -- shared jobs ---------------------------------------------------------------
def context_fields(ctx: Context) -> dict:
    """A snapshot of every slot (lists copied: publishing appends)."""
    return {name: (lambda v: list(v) if isinstance(v, list) else v)(
        getattr(ctx, name)) for name in Context.__slots__}


class RecordingEcho(Mapper):
    """Echo that records each input event and the context it ran under."""

    def map(self, ctx, event):
        self.config["log"].append((event, context_fields(ctx)))
        ctx.publish("S2", event.key, event.value)


class RecordingCount(Updater):
    """Counter that records each event it applies."""

    def init_slate(self, key):
        return {"count": 0}

    def update(self, ctx, event, slate):
        self.config["log"].append(event)
        slate["count"] += 1


def recording_app(maps: list, updates: list) -> Application:
    app = Application("inlined-copies")
    app.add_stream("S1", external=True)
    app.add_stream("S2")
    app.add_mapper("M1", RecordingEcho, subscribes=["S1"], publishes=["S2"],
                   config={"log": maps})
    app.add_updater("U1", RecordingCount, subscribes=["S2"],
                    config={"log": updates})
    return app.validate()


def source_events(spacing: float) -> List[Event]:
    """400 seeded events over 25 keys, with unique values (the value
    identifies each)."""
    rng = random.Random(7)
    return [Event("S1", i * spacing, f"k{rng.randrange(25)}", i)
            for i in range(400)]


class Capture(SchedulerHook):
    """Keeps every envelope a heap-dispatched ``_deliver`` received."""

    def __init__(self):
        self.envelopes = []

    def executed(self, sim, entry):
        if getattr(entry[3], "__name__", "") == "_deliver":
            self.envelopes.append(entry[5][1])


def sim_run(machines: int = 2, hook: bool = False, spacing: float = 0.0005,
            **config):
    """A recording job on the simulator (``spacing`` 0 is one burst);
    returns (runtime, sources, map log, update log, captured envelopes)."""
    maps, updates = [], []
    events = source_events(spacing)
    runtime = SimRuntime(recording_app(maps, updates),
                         ClusterSpec.uniform(machines, cores=2),
                         SimConfig(**config), [Source("S1", iter(events))])
    capture = Capture()
    if hook:
        runtime.sim.hook = capture
    runtime.run(2.0)
    return runtime, events, maps, updates, capture.envelopes


def local_run():
    """The same job on the threaded engine; returns (engine, sources, map
    log, update log). The engine is stopped."""
    maps, updates = [], []
    events = source_events(0.0005)
    with LocalMuppet(recording_app(maps, updates)) as runtime:
        for event in events:
            runtime.ingest(event)
        assert runtime.drain()
    return runtime, events, maps, updates


def resident_slates(managers) -> Dict[str, Slate]:
    found = {}
    for manager in managers:
        for slate_key in manager.cache.resident():
            found[slate_key.key] = manager.cache.peek(slate_key)
    return found


def sim_managers(runtime):
    return [mgr for machine in runtime.machines.values()
            for mgr in runtime._managers_of(machine)]


def cross_machine_send(runtime, event: Event):
    """Send ``event`` to U1 from a machine that does not own it; returns
    the heap entry of its delivery (or None when it was buffered)."""
    envelope = _Envelope(event, 0.0, "U1")
    owner = runtime._membership.owner(event.key, "U1")
    sender = next(name for name in runtime.machines if name != owner.name)
    runtime._send(envelope, sender)
    found = [entry for entry in runtime.sim._heap
             if entry[5] is not None and entry[5][1] is envelope]
    return found[0] if found else None


# -- one check per marker ------------------------------------------------------
def _memtable_puts():
    """A memtable after puts with overwrites and tombstones, and the
    newest cell per key."""
    memtable = Memtable()
    cells = [Cell(f"r{i % 7}", f"c{i % 3}",
                  None if i % 5 == 0 else b"x" * i, float(i))
             for i in range(60)]
    for cell in cells:
        memtable.put(cell)
    return memtable, {cell.key: cell for cell in cells}


def check_cell_key():
    memtable, newest = _memtable_puts()
    assert len(memtable) == len(newest)
    assert all(memtable.get(*key) is cell for key, cell in newest.items())


def check_cell_size_bytes():
    memtable, newest = _memtable_puts()
    assert memtable.size_bytes == sum(cell.size_bytes()
                                      for cell in newest.values())


def check_json_number_len():
    base = charged_size(Cell("r", "c", b"v", 0))  # an int: not inlined
    for stamp in (0.0, 1.5, 1e-7, 123456.789, 1e22, -3.25, 2.0 ** 60):
        assert (charged_size(Cell("r", "c", b"v", stamp)) - base
                == _json_number_len(stamp) - _json_number_len(0)), stamp


def check_choose():
    rng = random.Random(3)
    for threads in (1, 2, 4):
        fast, slow = TwoChoiceDispatcher(threads), TwoChoiceDispatcher(threads)
        workers = [SimpleNamespace(current=None, queue=None)
                   for _ in range(threads)]
        for _ in range(400):
            key, fn = f"k{rng.randrange(30)}", rng.choice("UV")
            for worker in workers:
                worker.queue = SimpleNamespace(_items=[0] * rng.randrange(6))
                worker.current = rng.choice([None, (key, fn), ("x", "U")])
            index = slow.choose(key, fn,
                                [len(w.queue._items) for w in workers],
                                [w.current for w in workers])
            assert fast.choose_workers(key, fn, workers) is workers[index]
        assert fast.stats.as_dict() == slow.stats.as_dict()


def check_sim_choose_workers():
    """A run whose deliveries call ``choose_workers`` itself (a
    single-choice build given two-choice dispatchers) matches the
    inlined run event for event."""
    def run(two_choice: bool):
        hot = [Event("S1", 0.0, f"k{i % 3}", i) for i in range(600)]
        runtime = SimRuntime(
            count_app("choose", hops=1), ClusterSpec.uniform(2, cores=4),
            SimConfig(two_choice=two_choice), [Source("S1", iter(hot))])
        if not two_choice:
            for machine in runtime.machines.values():
                machine.dispatcher = TwoChoiceDispatcher(
                    machine.dispatcher.num_threads)
        report = runtime.run(2.0)
        return (report.counter_report(),
                [m.dispatcher.stats.as_dict()
                 for m in runtime.machines.values()])

    inlined, original = run(True), run(False)
    assert inlined == original
    assert sum(stats["spills"] for stats in inlined[1]) > 0


def check_queue_offer():
    """Replaying the traced offers and pops of every worker queue through
    ``BoundedQueue`` reproduces each queue's stats."""
    runtime, *_ = sim_run(machines=1, spacing=0.0, trace=True,
                          queue_capacity=3)
    replay: Dict[int, BoundedQueue] = {}
    for span in runtime.tracer.spans():
        if span["kind"] == "dispatch":
            queue = replay.setdefault(span["worker"], BoundedQueue(3))
            queue.offer(span)
        elif span["kind"] == "execute":
            replay[span["worker"]].poll()
    (machine,) = runtime.machines.values()
    assert any(worker.queue.stats.rejected for worker in machine.workers)
    for worker in machine.workers:
        assert (worker.queue.stats.as_dict()
                == replay[worker.index].stats.as_dict())


def check_envelope_init():
    runtime, events, maps, updates, envelopes = sim_run(hook=True)
    assert len(envelopes) == len(maps) + len(updates)
    for env in envelopes:
        assert env == _Envelope(env.event, env.birth_ts, env.dest_fn,
                                replayed=env.replayed)


def check_with_seq():
    runtime, events, maps, updates, envelopes = sim_run(hook=True)
    engine, _, local_maps, local_updates = local_run()
    for stamped in [env.event for env in envelopes] + [
            event for event, _ in local_maps] + local_updates:
        if stamped.sid == "S1":
            original = events[stamped.value]
        else:
            original = Event("S2", stamped.ts, stamped.key, stamped.value)
        assert stamped == original.with_seq(stamped.seq)
    for app in (runtime.app, engine.app):
        # The copies drew on the registry's own sequencers.
        probe = Event("S2", 9.0, "k", 0)
        assert app.streams.stamp(probe).seq == len(events)


def check_latency_record():
    runtime, _, _, updates, _ = sim_run()
    samples = runtime.latency["U1"].samples
    original = LatencyRecorder()
    for sample in samples:
        original.record(sample)
    assert len(samples) == len(updates)
    assert original.samples == samples and min(samples) > 0.0


def check_advance_to():
    """Every action runs at the time its entry was scheduled for, as
    ``advance_to`` would have set it."""
    runtime, _, _, _, _ = sim_run()
    sim = runtime.sim
    seen = []
    for at in (0.5, 0.25, 0.25, 1.0):
        sim.schedule(sim.now() + at, lambda s, at=at: seen.append(
            (s.now(), s.clock._now)))
    original = type(sim.clock)(sim.now())
    sim.run_until(sim.now() + 2.0)
    expected = []
    for at in sorted((0.5, 0.25, 0.25, 1.0)):
        original.advance_to(2.0 + at)
        expected.append((original.now(), original.now()))
    assert seen == expected


def check_event_new():
    ctx = Context("M1", 1.0, ("S2",), "k")
    published = ctx.publish("S2", "k", 5)
    assert type(published) is Event
    assert published == Event("S2", published.ts, "k", 5)


def check_context_init():
    _, _, maps, _, _ = sim_run()
    _, _, local_maps, _ = local_run()
    for event, fields in maps + local_maps:
        built = Context("M1", event.ts, ("S2",), event.key)
        assert fields == {name: getattr(built, name)
                          for name in Context.__slots__}


def _expected_cache(keys: List[str], capacity: int = 1_000) -> SlateCache:
    cache = SlateCache(capacity)
    for key in keys:
        slate_key = SlateKey("U1", key)
        if cache.get(slate_key) is None:
            cache.put(Slate(slate_key))
    return cache


def check_cache_get():
    runtime, _, _, updates, _ = sim_run(machines=1)
    engine, _, _, local_updates = local_run()
    keys = [event.key for event in updates]
    for managers, log in ((sim_managers(runtime), updates),
                          ([engine.manager], local_updates)):
        (manager,) = managers
        expected = _expected_cache([event.key for event in log]).stats
        stats = manager.cache.stats
        assert (stats.hits, stats.misses) == (expected.hits, expected.misses)
    # The manager's own copy, with a cache small enough to evict.
    manager = SlateManager(None, cache_capacity=10)
    updater = RecordingCount(name="U1", config={"log": []})
    for key in keys:
        manager.get(updater, key)
    expected = _expected_cache(keys, capacity=10)
    assert manager.cache.stats.as_dict() == expected.stats.as_dict()
    assert manager.cache.resident() == expected.resident()
    assert expected.stats.evictions > 0


def check_take_due():
    """``flush_due`` flushes exactly when ``take_due`` says a flush is
    due, reading the clock as often."""
    def run(inlined: bool):
        readings = itertools.count(1)
        manager = SlateManager(None, flush_policy=FlushPolicy.every(0.004),
                               clock=lambda: next(readings) * 0.001)
        updater = RecordingCount(name="U1", config={"log": []})
        flushed = []
        for i in range(40):
            slate = manager.get(updater, f"k{i % 3}")
            slate["count"] += 1
            if inlined:
                flushed.append(manager.flush_due())
            else:
                flushed.append(manager.flush_all_dirty()
                               if manager.take_due() else 0)
        return flushed, next(readings), manager._last_interval_flush

    inlined = run(True)
    assert inlined == run(False)
    assert 0 < inlined[0].count(0) < len(inlined[0])


def _twin_versions(log: List[Event]):
    """Per key, (version, last_update_ts) of a slate driven through
    ``Slate.__setitem__`` and ``Slate.touch`` as each update was."""
    twins: Dict[str, Slate] = {}
    for event in log:
        twin = twins.get(event.key)
        if twin is None:
            twin = twins[event.key] = Slate(SlateKey("U1", event.key),
                                            {"count": 0})
        twin["count"] += 1
        twin.touch(event.ts)
    return {key: (t.version, t.last_update_ts) for key, t in twins.items()}


def check_touch():
    runtime, _, _, updates, _ = sim_run()
    engine, _, _, local_updates = local_run()
    for managers, log in ((sim_managers(runtime), updates),
                          ([engine.manager], local_updates)):
        slates = resident_slates(managers)
        assert {key: (s.version, s.last_update_ts)
                for key, s in slates.items()} == _twin_versions(log)


def check_estimated_bytes():
    runtime, *_ = sim_run()
    slates = resident_slates(sim_managers(runtime))
    assert slates
    for slate in slates.values():
        assert slate._size_version == slate.version
        assert slate._size_bytes == Slate(
            slate.slate_key, slate.as_dict()).estimated_bytes()


def check_note_update():
    runtime, *_ = sim_run(flush_policy=FlushPolicy.write_through())
    slates = resident_slates(sim_managers(runtime))
    for key, slate in slates.items():
        assert not slate.dirty
        stored = DEFAULT_CODEC.decode(runtime.store.read(key, "U1").value)
        assert stored == slate.as_dict()
    with pytest.raises(SlateTooLargeError):
        sim_run(max_slate_bytes=5)


def check_provenance_and_derive_origin():
    runtime, _, maps, updates, _ = sim_run(
        delivery_semantics="effectively-once", checkpoint_epoch_s=0.5)
    parents = {event.value: event for event, _ in maps}
    marks: Dict[str, Dict[str, int]] = {}
    for event in updates:
        assert event.provenance() == derive_origin(
            parents[event.value], "M1", 0)
        origin, oseq = event.provenance()
        held = marks.setdefault(event.key, {})
        held[origin] = max(held.get(origin, -1), oseq)
    slates = resident_slates(sim_managers(runtime))
    assert {key: s._watermarks for key, s in slates.items()} == marks


def check_dirty_setter():
    logs = ([], [])
    copy, original = (Slate(SlateKey("U1", "k")), Slate(SlateKey("U1", "k")))
    copy.set_dirty_listener(lambda slate, dirty: logs[0].append(dirty))
    original.set_dirty_listener(lambda slate, dirty: logs[1].append(dirty))

    def same():
        assert ((copy.version, copy.dirty, logs[0])
                == (original.version, original.dirty, logs[1]))

    for step in range(6):
        copy["x"] = step
        original._data["x"] = step
        original.dirty = True
        same()
        copy.advance_watermark("S1", step)
        original._watermarks = {"S1": step}
        original.dirty = True
        same()
        if step % 3 == 0:
            copy.mark_clean()
            original.mark_clean()
        copy.touch(float(step))
        original.last_update_ts = float(step)
        original.dirty = True
        same()
        assert copy.last_update_ts == original.last_update_ts
        if step % 2:
            copy.mark_clean()
            original.mark_clean()


def check_schedule_cancellable():
    runtime = SimRuntime(count_app("linger", hops=0),
                         ClusterSpec.uniform(2, cores=2),
                         SimConfig(batch_max_events=8, batch_linger_s=0.002))
    assert cross_machine_send(runtime, Event("S1", 0.0, "k1", 1)) is None
    (copied,) = [entry for entry in runtime.sim._heap if entry[4] is not None]
    handle = runtime.sim.schedule_cancellable(0.002, copied[3])
    (original,) = [entry for entry in runtime.sim._heap
                   if entry[4] is handle]

    def shape(entry):
        return (entry[0], entry[1], entry[3], type(entry[4]),
                entry[4].cancelled, entry[5])

    assert shape(copied) == shape(original)


def check_size_bytes():
    runtime = SimRuntime(count_app("sizes", hops=0),
                         ClusterSpec.uniform(2, cores=2), SimConfig())
    network = runtime.cluster.network
    for value in (None, 12345, "naïve text", 2.5, ("a", 1)):
        event = Event("S1", 0.0, "k1", value)
        entry = cross_machine_send(runtime, event)
        assert entry[0] == network.transfer_time(event.size_bytes(), False)


def check_transfer_time():
    check_size_bytes()  # a solo send prices one event
    runtime = SimRuntime(count_app("batch", hops=0),
                         ClusterSpec.uniform(2, cores=2),
                         SimConfig(batch_max_events=4, batch_linger_s=1.0))
    events = [Event("S1", 0.0, "k1", "x" * i) for i in range(4)]
    for event in events:
        cross_machine_send(runtime, event)
    (arrival,) = [entry for entry in runtime.sim._heap
                  if getattr(entry[3], "__name__", "") == "deliver_all"]
    assert arrival[0] == runtime.cluster.network.transfer_time(
        sum(event.size_bytes() for event in events), False)


CHECKS: Dict[str, Callable[[], None]] = {
    "repro.kvstore.cells:Cell.key": check_cell_key,
    "repro.kvstore.cells:Cell.size_bytes": check_cell_size_bytes,
    "repro.kvstore.commitlog:_json_number_len": check_json_number_len,
    "repro.muppet.dispatch:TwoChoiceDispatcher.choose": check_choose,
    "repro.muppet.dispatch:TwoChoiceDispatcher.choose_workers":
        check_sim_choose_workers,
    "repro.muppet.queues:BoundedQueue.offer": check_queue_offer,
    "repro.sim.runtime:_Envelope.__init__": check_envelope_init,
    "repro.core.event:Event.with_seq": check_with_seq,
    "repro.core.event:Event.__new__": check_event_new,
    "repro.sim.clock:VirtualClock.advance_to": check_advance_to,
    "repro.obs.latency:LatencyRecorder.record": check_latency_record,
    "repro.core.event:Event.provenance": check_provenance_and_derive_origin,
    "repro.core.event:derive_origin": check_provenance_and_derive_origin,
    "repro.core.event:Event.size_bytes": check_size_bytes,
    "repro.core.operators:Context.__init__": check_context_init,
    "repro.core.slate:Slate.dirty": check_dirty_setter,
    "repro.core.slate:Slate.touch": check_touch,
    "repro.core.slate:Slate.estimated_bytes": check_estimated_bytes,
    "repro.slates.cache:SlateCache.get": check_cache_get,
    "repro.slates.manager:SlateManager.note_update": check_note_update,
    "repro.slates.manager:SlateManager.take_due": check_take_due,
    "repro.sim.des:Simulator.schedule_cancellable":
        check_schedule_cancellable,
    "repro.cluster.topology:NetworkSpec.transfer_time": check_transfer_time,
}


# -- the tests -------------------------------------------------------------------
@pytest.mark.parametrize("target", sorted(markers()))
def test_marker_resolves(target):
    assert resolve(target) is not None, markers()[target]


def test_every_marker_has_a_check():
    assert set(markers()) == set(CHECKS)


@pytest.mark.parametrize("target", sorted(CHECKS))
def test_copy_matches_its_original(target):
    CHECKS[target]()


def _private_writes(function: ast.AST) -> List[int]:
    """Lines where ``function`` stores into another object's private
    slot, or calls a method on one (``cache._slates.move_to_end``)."""
    def foreign_private(node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in OWN))

    lines = []
    for node in ast.walk(function):
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)):
            targets = [node.func.value]
        for target in targets:
            if isinstance(target, ast.Subscript):
                target = target.value
            if foreign_private(target):
                lines.append(node.lineno)
    return lines


def test_hot_path_private_writes_are_marked():
    unmarked = []
    for path in _files():
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            signature = lines[node.lineno - 1:node.body[0].lineno - 1]
            if not any(HOT in line for line in signature):
                continue
            writes = _private_writes(node)
            body = lines[node.lineno - 1:node.end_lineno]
            if writes and not any(MARKER.match(line) for line in body):
                unmarked.append(f"{path.relative_to(SRC)}:{writes[0]} "
                                f"({node.name})")
    assert not unmarked, unmarked


def test_the_scan_sees_what_it_should():
    assert len(markers()["repro.slates.cache:SlateCache.get"]) == 3
    (function,) = ast.parse(
        "def f(self, cache, slate):  # hot-path\n"
        "    self._x = 1\n"
        "    cache._slates.move_to_end(1)\n"
        "    slate._version += 1\n"
        "    slate.last_update_ts = 2.0\n").body
    assert sorted(_private_writes(function)) == [3, 4]
