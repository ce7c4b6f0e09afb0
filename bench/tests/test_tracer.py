"""Self-time arithmetic and patch bookkeeping of the tracer."""

import threading

from bench import tracer as tracing


class ScriptedClock:
    """A per-thread clock that only moves when the code under test says
    so, making every duration in these tests exact."""

    def __init__(self):
        self._local = threading.local()

    def __call__(self):
        return getattr(self._local, "now", 0)

    def advance(self, ns):
        self._local.now = self() + ns


def test_self_time_of_nested_and_recursive_calls_on_two_threads():
    clock = ScriptedClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.advance(5)

    def recurse(depth):
        clock.advance(2)
        if depth:
            recurse(depth - 1)

    def outer():
        clock.advance(10)
        leaf()
        recurse(2)
        clock.advance(1)

    leaf = tracer.wrap("layer.leaf", "leaf", leaf)
    recurse = tracer.wrap("layer.rec", "recurse", recurse)
    outer = tracer.wrap("layer.outer", "outer", outer)

    covered = []

    def work(times):
        for _ in range(times):
            outer()
        covered.append(tracer.self_ns_of_current_thread())

    threads = [threading.Thread(target=work, args=(n,)) for n in (1, 3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()

    by_layer = tracer.by_layer()
    # 4 calls of outer: own 10 + 1; leaf 5; recursion 3 frames of 2 each.
    assert by_layer["layer.outer"] == {
        "calls": 4, "total_ns": 4 * 22, "self_ns": 4 * 11}
    assert by_layer["layer.leaf"] == {
        "calls": 4, "total_ns": 4 * 5, "self_ns": 4 * 5}
    # Nested frames of the recursion are counted in the total of every
    # enclosing frame (6 + 4 + 2) but only once as self time.
    assert by_layer["layer.rec"] == {
        "calls": 12, "total_ns": 4 * 12, "self_ns": 4 * 6}
    # On each thread, self times add up to its root spans' durations.
    assert sorted(covered) == [22, 66]
    total_self = sum(row["self_ns"] for row in by_layer.values())
    assert total_self == 4 * 22


def test_spans_keep_parent_thread_and_inherited_request():
    clock = ScriptedClock()
    tracer = tracing.Tracer(clock=clock)
    tracer.keep = True

    def child():
        clock.advance(3)

    child = tracer.wrap("b", "child", child)

    def parent(index):
        clock.advance(1)
        child()

    parent = tracer.wrap("a", "parent", parent, request=lambda a: a[0])
    parent(41)
    tracer.keep = False
    parent(42)

    # Spans are kept only while keep is set.
    assert sum(len(state.spans) for state in tracer._states) == 2
    spans = {}
    for state in tracer._states:
        for span_id, parent_id, index, start, end, req in state.spans:
            spans[tracer.names[index][1]] = (span_id, parent_id, end - start,
                                             req)
    assert spans["parent"][1] == 0 and spans["parent"][3] == 41
    assert spans["child"][1] == spans["parent"][0]
    assert spans["child"][2] == 3 and spans["child"][3] == 41
    assert tracer.by_layer()["a"]["calls"] == 2


def test_install_then_uninstall_restores_every_attribute_identically():
    missing = object()

    def raw_attributes():
        found = []
        for _layer, target in tracing.TABLE:
            owner, attr = tracing._resolve(target)
            found.append(vars(owner).get(attr, missing))
        return found

    before = raw_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = raw_attributes()
        assert all(new is not old for new, old in zip(patched, before))
    finally:
        tracer.uninstall()
    after = raw_attributes()
    assert all(new is old for new, old in zip(after, before))
    assert tracer._patched == []


def test_install_can_be_limited_to_some_layers():
    from repro.muppet.queues import BoundedQueue
    from repro.slates.cache import SlateCache

    cache_get = SlateCache.get
    tracer = tracing.Tracer()
    tracer.install(layers=["muppet.queues"])
    try:
        assert SlateCache.get is cache_get
        queue = BoundedQueue(4)
        item = object()
        assert queue.offer(item) and queue.poll() is item
        assert queue.poll() is None
    finally:
        tracer.uninstall()
    assert len(tracer.queue_waits_ns) == 1
    assert tracer.by_layer()["muppet.queues"]["calls"] == 3


def test_every_table_layer_is_in_the_catalogue():
    from bench import catalog

    for layer in tracing.LAYERS:
        assert f"{layer}.calls_per_event" in catalog.PER_LAYER_NAMES
        assert f"{layer}.self_us_per_event" in catalog.PER_LAYER_NAMES
