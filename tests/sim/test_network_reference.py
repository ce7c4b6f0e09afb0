"""The compiled send path against its reference, ``NetworkSpec.transfer_time``.

``SimRuntime`` inlines the network model into its per-event path: a
send pays ``latency + bytes / bandwidth`` and a loopback send is free,
which is what :meth:`NetworkSpec.transfer_time` says. As
:func:`repro.core.event.derive_origin` is the reference for derived
ids, ``transfer_time`` is the reference here: every envelope must land
on the heap at the instant it left plus its extra delay plus
``transfer_time(bytes, same_machine)``, solo or in a shipped batch.
"""

from repro.cluster import ClusterSpec
from repro.cluster.topology import NetworkSpec
from repro.sim import SimConfig, SimRuntime, constant_rate
from repro.sim import runtime as runtime_module
from repro.sim.costs import CostModel
from tests.conftest import build_count_app

#: A slow network, so latency and bytes both show in every arrival.
NETWORK = NetworkSpec(latency_s=0.002, bandwidth_bytes_per_s=1e5)
SOURCE_S = CostModel().source_service_s


def run_recorded(monkeypatch, **config_kwargs):
    """Run the count app (S1 -> M1 -> S2 -> U1) on three machines and
    return the runtime and every ``(left_at, heap entry)`` its compiled
    path pushed."""
    pushed = []
    holder = []
    real_push = runtime_module.heappush

    def recording_push(heap, entry):
        pushed.append((holder[0].sim.now(), entry))
        real_push(heap, entry)

    monkeypatch.setattr(runtime_module, "heappush", recording_push)
    source = constant_rate("S1", rate_per_s=400.0, duration_s=0.5,
                           key_fn=lambda i: f"k{i % 12}")
    runtime = SimRuntime(build_count_app(),
                         ClusterSpec.uniform(3, cores=2, network=NETWORK),
                         SimConfig(queue_capacity=100_000, **config_kwargs),
                         [source])
    holder.append(runtime)
    runtime.run(5.0)
    return runtime, pushed


def sender_of(envelope, mapper_machine):
    """``(sending machine or None, extra delay)`` of one envelope: a
    source event leaves M0 after its service time; M1's echo of key k
    leaves the machine that ran M1 on k."""
    if envelope.event.sid == "S1":
        return None, SOURCE_S
    return mapper_machine[envelope.event.key], 0.0


def closure_of(fn):
    return dict(zip(fn.__code__.co_freevars,
                    (cell.cell_contents for cell in fn.__closure__)))


def test_solo_and_loopback_sends_arrive_after_transfer_time(monkeypatch):
    runtime, pushed = run_recorded(monkeypatch)
    mapper_machine = {}
    kinds = set()
    for left_at, entry in pushed:
        if entry[3] is not runtime._deliver:
            continue
        machine, envelope = entry[5]
        if envelope.dest_fn == "M1":
            mapper_machine.setdefault(envelope.event.key, machine.name)
        sender, extra = sender_of(envelope, mapper_machine)
        same = sender == machine.name
        kinds.add((envelope.event.sid, same))
        expected = left_at + (extra + NETWORK.transfer_time(
            envelope.event.size_bytes(), same_machine=same))
        assert entry[0] == expected, (envelope.event, sender, machine.name)
    assert kinds == {("S1", False), ("S2", False), ("S2", True)}


def test_shipped_batches_arrive_after_transfer_time(monkeypatch):
    runtime, pushed = run_recorded(monkeypatch, batch_max_events=8,
                                   batch_linger_s=0.001)
    mapper_machine = {}
    last_arrival = {}
    batches = {"S1": 0, "S2": 0}
    for left_at, entry in pushed:
        fn = entry[3]
        if fn is runtime._deliver:  # solo: a loopback send
            machine, envelope = entry[5]
            if envelope.dest_fn == "M1":
                mapper_machine.setdefault(envelope.event.key, machine.name)
            continue
        if getattr(fn, "__name__", "") != "deliver_all":
            continue
        cells = closure_of(fn)
        machine, envelopes = cells["machine"], cells["envelopes"]
        for envelope in envelopes:
            if envelope.dest_fn == "M1":
                mapper_machine.setdefault(envelope.event.key, machine.name)
        senders = {sender_of(envelope, mapper_machine)
                   for envelope in envelopes}
        assert len({sender for sender, _ in senders}) == 1  # one link
        sender = next(iter(senders))[0]
        assert sender != machine.name  # loopback never batches
        extra = max(extra for _, extra in senders)
        size = sum(envelope.event.size_bytes() for envelope in envelopes)
        expected = left_at + (extra + NETWORK.transfer_time(
            size, same_machine=False))
        link = (sender, machine.name)
        # A link is FIFO: a batch never overtakes the one before it.
        expected = max(expected, last_arrival.get(link, 0.0))
        last_arrival[link] = expected
        assert entry[0] == expected, link
        batches[envelopes[0].event.sid] += 1
    assert batches["S1"] > 0 and batches["S2"] > 0
    assert runtime.dataplane.batches_sent == sum(batches.values())
