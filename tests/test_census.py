"""The execution census's table, and the gate that holds the code to it.

``tests/census.py`` runs every non-test entry point of the repository
under a trace hook and names each counted function of ``src/repro``
that none of them enters. A never-entered function is deleted, or
listed here with the reason it stays. The full census takes about 15
minutes of single-process time, so the nightly CI job runs it
(``python -m tests.census --jobs 2``); the tests below check the table
and the gate itself on a small scratch package.
"""

import sys
import threading

import pytest

from repro.campaign.spec import resolve_ref
from tests import census

TRACER_TARGET = ("a bench/tracer.py layer target; it goes when the "
                 "benchmark stops naming it")
CLEANUP = "durability and cleanup: "

#: Counted functions no entry point enters, and why each stays.
UNREACHED = {
    # Failure paths: they run when something goes wrong.
    "repro.muppet.local:ThreadedEngine._overflow":
        "a failure path: a full queue on the threaded engine",
    "repro.elastic.migration:MigrationCoordinator._abort":
        "a failure path: a crash during a migration's handoff",
    "repro.muppet.master:Master.abort_migration":
        "a failure path: the master's side of an aborted migration",
    "repro.core.operators:Updater.update_weighted":
        "a failure path: rejects a thinned event on a non-commutative "
        "updater",
    "repro.obs.trace:reconstruct_chain":
        "a failure path: rebuilds the chain of an invariant violation",
    "repro.obs.trace:_first_at_or_after":
        "a failure path: reconstruct_chain's state-layer join",
    "repro.analysis.invariants:InvariantViolation.format":
        "a failure path: prints an invariant violation",
    "repro.analysis.lint:Finding.format":
        "a failure path: prints a lint finding",
    "repro.analysis.races:RaceReport.format":
        "a failure path: prints a detected race",
    # Named by the benchmark's tracer.
    "repro.muppet.dispatch:TwoChoiceDispatcher.choose": TRACER_TARGET,
    "repro.slates.manager:SlateManager.flush_one": TRACER_TARGET,
    "repro.sim.des:Simulator.schedule_cancellable": TRACER_TARGET,
    "repro.sim.des:ScheduledEvent.cancel":
        "the handle Simulator.schedule_cancellable (a bench/tracer.py "
        "target) returns",
    "repro.kvstore.node:StorageNode.put_many": TRACER_TARGET,
    # Durability and cleanup.
    "repro.kvstore.cluster:ReplicatedKVStore.close":
        CLEANUP + "releases a durable store's file handles",
    "repro.kvstore.commitlog:CommitLog.close":
        CLEANUP + "releases a durable log's file handle",
    "repro.kvstore.node:StorageNode.close":
        CLEANUP + "releases a durable node's file handles",
    "repro.kvstore.node:StorageNode.crash":
        CLEANUP + "drops a node's memory as a crash would, for the "
        "durability tests",
    # Reached only in a configuration no entry point runs.
    "repro.campaign.workers:pool_entry":
        "runs in a spawned pool worker (campaign run --workers N > 1, "
        "as CI runs campaigns), which the census does not trace",
    "repro.sim.membership:WorkerRings.retire":
        "SimRuntime.schedule_remove_machine on a muppet1 runtime retires "
        "through it",
    "repro.muppet.dispatch:SingleChoiceDispatcher.reset":
        "a retire resets every machine's dispatcher, and a two_choice="
        "False runtime has this one",
    "repro.muppet.local:ThreadedEngine._fire_timer":
        "Section 3's timers on the threaded engine: no example runs a "
        "windowed app there",
    "repro.muppet.http:_SlateRequestHandler._store_read":
        "an HTTP slate read that misses the cache falls back to the store",
    # Defaults of an interface.
    "repro.core.operators:Updater.init_slate":
        "the operator API's empty first slate; every shipped updater "
        "overrides it",
    "repro.sim.des:SchedulerHook.choose":
        "the scheduler seam's default (the uncontrolled order); the "
        "model checker's chooser supplies its own",
}


def resolve(qualname):
    """Resolve ``module:Class.attr`` through ``resolve_ref`` (which takes
    one attribute), then walk the rest."""
    module, _, path = qualname.partition(":")
    head, *rest = path.split(".")
    obj = resolve_ref(f"{module}:{head}")
    for attr in rest:
        obj = getattr(obj, attr)
    return obj


def test_the_table_is_short_and_every_entry_has_a_reason():
    assert len(UNREACHED) <= 25
    for name, reason in UNREACHED.items():
        assert isinstance(reason, str) and reason.strip(), name


@pytest.mark.parametrize("name", sorted(UNREACHED))
def test_every_entry_resolves_to_a_counted_function(name):
    assert resolve(name) is not None
    assert name in census.functions()


PROBE = '''
import abc
import threading


def used():
    def nested():
        return 1
    return nested()


def unused():
    return 2


def in_a_thread():
    return 3


def run_a_thread():
    worker = threading.Thread(target=in_a_thread)
    worker.start()
    worker.join()


def called_from_bench():
    return 4


class Probe:
    def __init__(self):
        self.x = 1

    @abc.abstractmethod
    def abstract(self):
        return 5

    def stub(self):
        """Only a docstring and a raise."""
        raise NotImplementedError

    def method(self):
        return 6

    @property
    def never(self):
        return 7


class Table:
    def setdefault(self, key, default):
        return 8
'''


@pytest.fixture
def probe(tmp_path, monkeypatch):
    package = tmp_path / "censusprobe"
    package.mkdir()
    (package / "__init__.py").write_text(PROBE)
    bench = tmp_path / "bench"
    bench.mkdir()
    (bench / "run.py").write_text(
        "import censusprobe\ncensusprobe.called_from_bench()\n"
        "d = {}\nd.setdefault('k', []).append(1)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield package, bench
    sys.modules.pop("censusprobe", None)


def probe_census(package, bench, entry):
    defs = census.functions(package, "censusprobe")
    sites = set()
    with census.recording(sites):
        entry()
    return census.never_entered(defs, sites,
                                census.bench_called_names(bench))


def test_the_gate_names_a_never_entered_function(probe):
    package, bench = probe

    def entry():
        import censusprobe
        censusprobe.used()
        censusprobe.run_a_thread()

    never = probe_census(package, bench, entry)
    # Dunders, abstract methods and stubs are not counted; a nested
    # function counts with its parent, a thread's entries count, and a
    # call in bench/ counts as entered. A bench dict's setdefault does
    # not enter the package's only setdefault.
    assert never == {"censusprobe:unused", "censusprobe:Probe.method",
                     "censusprobe:Probe.never",
                     "censusprobe:Table.setdefault"}
    found = census.problems(never, {"censusprobe:Probe.method": "kept",
                                    "censusprobe:Probe.never": "kept",
                                    "censusprobe:Table.setdefault": "kept"})
    assert found == ["never entered and not in UNREACHED: "
                     "censusprobe:unused"]


def test_the_gate_fails_on_a_listed_function_that_is_entered(probe):
    package, bench = probe

    def entry():
        import censusprobe
        censusprobe.used()
        censusprobe.unused()
        censusprobe.run_a_thread()
        censusprobe.Probe().method()
        assert censusprobe.Probe().never == 7
        assert censusprobe.Table().setdefault("k", 0) == 8

    never = probe_census(package, bench, entry)
    assert never == set()
    listed = {"censusprobe:used": "thought to be dead"}
    assert resolve("censusprobe:used") is not None
    assert census.problems(never, listed) == [
        "in UNREACHED but entered: censusprobe:used"]


def test_recording_leaves_no_hook_behind(probe):
    package, bench = probe
    probe_census(package, bench, lambda: None)
    assert sys.gettrace() is None
    assert threading.gettrace() is None
