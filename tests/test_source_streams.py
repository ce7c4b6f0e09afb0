"""Sources feed external streams only, in every engine.

An event an outside source offers on an internal stream (one only
operators publish into) is a workflow error: the reference executor,
the threaded engine and the simulator all refuse it rather than count
it published and processed.
"""

import pytest

from repro.apps.counting import count_app
from repro.cluster import ClusterSpec
from repro.core.event import Event
from repro.core.reference import ReferenceExecutor
from repro.errors import WorkflowError
from repro.muppet.local import LocalMuppet
from repro.sim import SimConfig, SimRuntime
from repro.sim.sources import Source


def _reference(app, events):
    ReferenceExecutor(app).run(events)


def _threaded(app, events):
    with LocalMuppet(app) as runtime:
        for event in events:
            runtime.ingest(event)


def _simulated(app, events):
    SimRuntime(app, ClusterSpec.uniform(2, cores=2), SimConfig(),
               [Source("S2", iter(events))]).run(1.0)


@pytest.mark.parametrize("run", [_reference, _threaded, _simulated],
                         ids=["reference", "threaded", "sim"])
@pytest.mark.parametrize("sid", ["S2", "S9"], ids=["internal", "unknown"])
def test_source_events_off_the_external_streams_are_rejected(run, sid):
    events = [Event(sid, i * 0.01, f"k{i}", i) for i in range(10)]
    with pytest.raises(WorkflowError):
        run(count_app("internal-source", hops=1), events)
