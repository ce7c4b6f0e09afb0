"""The MapUpdate programming model (paper Section 3).

Public surface: events and streams, the map/update operator API, slates,
workflow-graph applications, and the single-threaded reference executor
that defines the model's exact semantics.
"""

from repro.core.application import Application, OperatorSpec
from repro.core.binary import (BinaryMapper, BinaryUpdater,
                               PerformerUtilities, slate_bytes)
from repro.core.configfile import application_from_config, load_application
from repro.core.event import Event, EventCounter, Key, Timestamp
from repro.core.operators import (MIN_TS_INCREMENT, Context, Mapper,
                                  Operator, TimerRequest, Updater)
from repro.core.reference import ReferenceExecutor, ReferenceResult
from repro.core.slate import TTL_FOREVER, Slate, SlateKey
from repro.core.stream import StreamRegistry, StreamSpec
from repro.core.windows import TumblingWindow

__all__ = [
    "Application",
    "BinaryMapper",
    "BinaryUpdater",
    "PerformerUtilities",
    "application_from_config",
    "load_application",
    "slate_bytes",
    "Context",
    "Event",
    "EventCounter",
    "Key",
    "MIN_TS_INCREMENT",
    "Mapper",
    "Operator",
    "OperatorSpec",
    "ReferenceExecutor",
    "ReferenceResult",
    "Slate",
    "SlateKey",
    "StreamRegistry",
    "StreamSpec",
    "TTL_FOREVER",
    "TimerRequest",
    "Timestamp",
    "TumblingWindow",
    "Updater",
]
