"""The SchedulerHook seam: controlled scheduling over the DES heap.

The hook is the model checker's only entry point into the simulator, so
its contract is load-bearing: with no hook (or a hook that always picks
index 0) the loop must be byte-identical to the historical schedule,
and the hook must see exactly the co-enabled groups — same time, same
priority, nothing cancelled, nothing from a later instant.
"""

from typing import List, Tuple

from repro.sim.des import SchedulerHook, Simulator


def _run(hook) -> List[str]:
    """A fixed little schedule with ties at t=1.0 and a singleton later."""
    sim = Simulator()
    log: List[str] = []
    for name in ("a", "b", "c"):
        sim.schedule(1.0, lambda s, name=name: log.append(name))
    sim.schedule(1.0, lambda s: log.append("hi"), priority=-1)
    sim.schedule(2.0, lambda s: log.append("z"))
    sim.hook = hook
    sim.run_until(3.0)
    return log


def test_no_hook_and_choose_zero_agree():
    assert _run(None) == _run(SchedulerHook()) == ["hi", "a", "b", "c", "z"]


class _PickLast(SchedulerHook):
    def __init__(self):
        self.groups: List[List[Tuple]] = []

    def choose(self, sim, at, priority, entries):
        self.groups.append(list(entries))
        return len(entries) - 1


def test_hook_reorders_only_within_coenabled_group():
    hook = _PickLast()
    log = _run(hook)
    # Priority -1 still runs first; the t=1.0 tie is reversed; the
    # singleton at t=2.0 cannot be reordered past anything.
    assert log == ["hi", "c", "b", "a", "z"]
    # The hook only ever saw same-instant groups with > 1 entry... and
    # every group it saw was (time, priority)-uniform.
    for group in hook.groups:
        times = {(entry[0], entry[1]) for entry in group}
        assert len(times) == 1


class _CancelAware(SchedulerHook):
    def __init__(self):
        self.sizes: List[int] = []

    def choose(self, sim, at, priority, entries):
        self.sizes.append(len(entries))
        return 0


def test_cancelled_entries_never_reach_the_hook():
    sim = Simulator()
    log: List[str] = []
    sim.schedule(1.0, lambda s: log.append("keep"))
    handle = sim.schedule_cancellable(1.0, lambda s: log.append("dead"))
    sim.schedule(1.0, lambda s: log.append("keep2"))
    handle.cancel()
    hook = _CancelAware()
    sim.hook = hook
    sim.run_until(2.0)
    assert log == ["keep", "keep2"]
    assert all(size <= 2 for size in hook.sizes)


def test_hooked_run_matches_default_on_a_real_model():
    """Choose-0 under the hook reproduces the default engine run
    byte-for-byte on a full SimRuntime (counters and slates)."""
    from repro.analysis.mc.models import MODELS

    model = MODELS["two_choice_dedup"]
    schedule = model.lattice.schedules()[1]

    def run(hooked: bool):
        runtime = model.make_runtime(schedule)
        if hooked:
            runtime.sim.hook = SchedulerHook()
        runtime.run(model.horizon_s)
        return (runtime.counters.snapshot(),
                runtime.slates_of("U1", read_through=True))

    assert run(False) == run(True)


def test_run_consults_the_hook_too():
    """``run()`` and ``run_until()`` are one loop: a hook installed for
    an unbounded run reorders ties exactly as it does for a bounded one."""
    sim = Simulator()
    log: List[str] = []
    for name in ("a", "b", "c"):
        sim.schedule(1.0, lambda s, name=name: log.append(name))
    sim.hook = _PickLast()
    sim.run()
    assert log == ["c", "b", "a"]


def test_tail_is_pushed_under_a_hook_and_inlined_without():
    """A returned tail consumes the same sequence number either way; the
    hooked loop turns it into a heap entry the hook can reorder."""

    def run(hook, peers):
        sim = Simulator()
        log: List[str] = []

        def first(s):
            log.append("first")
            return (1.0, log.append, ("tail",))

        sim.schedule(0.5, first)
        for name in peers:
            sim.schedule(1.0, lambda s, name=name: log.append(name))
        sim.hook = hook
        sim.run_until(2.0)
        return log, sim.steps, sim.inlined_steps, next(sim._seq)

    # Nothing else scheduled: the tail is the next pop, so it runs inline.
    assert run(None, ()) == (["first", "tail"], 2, 1, 2)
    # Peers at the tail's instant carry smaller seqs and win the tie: the
    # tail waits in the heap like any pushed entry.
    assert run(None, "ab") == (["first", "a", "b", "tail"], 4, 0, 4)
    # Hooked: never inlined, even with an empty heap...
    assert run(SchedulerHook(), ()) == (["first", "tail"], 2, 0, 2)
    # ...so the hook is offered {a, b, tail} and may run the tail first.
    hook = _PickLast()
    assert run(hook, "ab") == (["first", "tail", "b", "a"], 4, 0, 4)
    assert [len(group) for group in hook.groups] == [3, 2]


class _Recording(SchedulerHook):
    def __init__(self):
        self.groups = 0
        self.seen = 0

    def choose(self, sim, at, priority, entries):
        self.groups += 1
        return 0

    def executed(self, sim, entry):
        self.seen += 1


def test_hook_on_a_chain_runtime_sees_groups_and_choose_zero_is_identity():
    """A hook on a full chain-app runtime — built through
    ``create_runtime`` with the retired ``fastforward`` knob on, the
    combination whose loop used to bypass the hook — is offered the
    co-enabled groups, observes every executed step, and answering 0
    everywhere reproduces the unhooked report and step count."""
    from repro.campaign.golden import chain_app
    from repro.cluster import ClusterSpec
    from repro.sim import SimConfig, create_runtime
    from repro.sim.sources import Source
    from tests.conftest import make_events

    def run(hook):
        # Two sources with identical timestamps: their steppers tie at
        # every arrival instant, as do the deliveries they cause.
        runtime = create_runtime(
            chain_app(), ClusterSpec.uniform(2, cores=2),
            SimConfig(fastforward=True),
            [Source("S1", iter(make_events(150, keys=6, spacing=0.001)))
             for _ in range(2)])
        runtime.sim.hook = hook
        return runtime, runtime.run(2.0)

    plain_runtime, plain = run(None)
    hook = _Recording()
    hooked_runtime, hooked = run(hook)
    assert hook.groups > 150
    assert hook.seen == hooked.steps
    assert hooked.counter_report() == plain.counter_report()
    assert hooked.steps == plain.steps
    assert (hooked_runtime.slates_of("U1")
            == plain_runtime.slates_of("U1"))
    # Tails were pushed for the hook to see, not run inline.
    assert hooked_runtime.sim.inlined_steps == 0
    assert plain_runtime.sim.inlined_steps > 0
