"""The route memo follows every ring change.

``_send`` and ``_deliver``'s effectively-once re-check ask a
``(key, fn) -> machine`` memo before the ring, for both worker layouts,
and :meth:`SimRuntime._change_ring` — the one way ring membership moves
— clears it. After each of the four changes the first send of every
warmed key must go to the owner the *new* ring names; a memo that
outlived the change would send it to the old one.
"""

import pytest

from repro.apps.counting import count_app
from repro.cluster import ClusterSpec
from repro.core.event import Event
from repro.sim import SimConfig, SimRuntime
from repro.sim.config import ENGINE_MUPPET1, ENGINE_MUPPET2
from repro.sim.runtime import _Envelope

KEYS = [f"k{i}" for i in range(200)]


def _sent_to(runtime: SimRuntime, key: str):
    """Send one U1 event for ``key`` and return the machine its
    delivery was pushed to."""
    envelope = _Envelope(Event("S1", 0.0, key, 0), 0.0, "U1")
    runtime._send(envelope, None)
    (machine,) = [entry[5][0] for entry in runtime.sim._heap
                  if entry[5] is not None and entry[5][1] is envelope]
    return machine


@pytest.mark.parametrize("engine", [ENGINE_MUPPET1, ENGINE_MUPPET2])
@pytest.mark.parametrize("change", ["exclude", "restore", "join", "retire"])
def test_first_send_after_a_ring_change_reaches_the_new_owner(engine, change):
    runtime = SimRuntime(count_app("route-memo", hops=0),
                         ClusterSpec.uniform(4, cores=2),
                         SimConfig(engine=engine))
    machine = runtime.machines["m001"]
    if change == "restore":
        runtime._change_ring("exclude", machine)
    elif change == "join":
        machine = runtime._construct_machine("m004", 2)
    before = {key: _sent_to(runtime, key) for key in KEYS}  # warms the memo
    runtime._change_ring(change, machine)
    after = {key: _sent_to(runtime, key) for key in KEYS}
    for key in KEYS:
        assert after[key] is runtime._membership.owner(key, "U1"), key
    assert any(after[key] is not before[key] for key in KEYS)
