"""repro — a from-scratch reproduction of Muppet (VLDB 2012).

Muppet implements **MapUpdate**, a MapReduce-style framework for *fast
data*: developers write map and update functions over streams; the system
distributes them over a cluster, managing per-(updater, key) state
("slates") as a first-class citizen backed by a Cassandra-like key-value
store.

Quickstart::

    from repro import Application, Event, Mapper, Updater, ReferenceExecutor

    class Shout(Mapper):
        def map(self, ctx, event):
            ctx.publish("S2", event.key, event.value.upper())

    class Count(Updater):
        def init_slate(self, key):
            return {"count": 0}
        def update(self, ctx, event, slate):
            slate["count"] += 1

    app = Application("demo")
    app.add_stream("S1", external=True)
    app.add_stream("S2")
    app.add_mapper("M1", Shout, subscribes=["S1"], publishes=["S2"])
    app.add_updater("U1", Count, subscribes=["S2"])

    result = ReferenceExecutor(app).run(
        [Event("S1", ts=float(i), key="k", value="hi") for i in range(3)]
    )
    assert result.slates_of("U1")["k"]["count"] == 3

Package map (see DESIGN.md for the full inventory):

* :mod:`repro.core` — the MapUpdate model and reference executor.
* :mod:`repro.cluster` — consistent hash ring, cluster topology.
* :mod:`repro.kvstore` — Cassandra-like LSM key-value store.
* :mod:`repro.slates` — slate codecs, caches, flush policies.
* :mod:`repro.muppet` — the Muppet 1.0 and 2.0 engines, failures,
  queues, throttling, HTTP slate reads, local thread runtime.
* :mod:`repro.sim` — discrete-event cluster simulator.
* :mod:`repro.faults` — chaos fault injection (seeded schedules of
  crashes, recoveries, partitions, slow nodes, kv outages).
* :mod:`repro.baselines` — MapReduce/micro-batch/Storm-style baselines.
* :mod:`repro.workloads` — synthetic firehose/checkin generators.
* :mod:`repro.apps` — the paper's example applications.
"""

from repro.core import (Application, Context, Event, EventCounter, Mapper,
                        Operator, ReferenceExecutor, ReferenceResult, Slate,
                        SlateKey, StreamSpec, Updater)
from repro.errors import (ConfigurationError, ReproError, SlateError,
                          SlateTooLargeError, StoreError, TimestampError,
                          WorkflowError)

__version__ = "1.0.0"

__all__ = [
    "Application",
    "ConfigurationError",
    "Context",
    "Event",
    "EventCounter",
    "Mapper",
    "Operator",
    "ReferenceExecutor",
    "ReferenceResult",
    "ReproError",
    "Slate",
    "SlateError",
    "SlateKey",
    "SlateTooLargeError",
    "StoreError",
    "StreamSpec",
    "TimestampError",
    "Updater",
    "WorkflowError",
    "__version__",
]
