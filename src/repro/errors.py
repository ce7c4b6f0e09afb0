"""Exception hierarchy for the Muppet/MapUpdate reproduction.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """An application or engine configuration is invalid.

    Raised, for example, when a workflow graph references an unknown stream,
    when two operators share a name, or when an engine parameter is out of
    range.
    """


class WorkflowError(ConfigurationError):
    """A workflow graph violates the MapUpdate model (Section 3).

    Examples: an operator subscribes to a stream nobody publishes, a map
    function is given a slate, or an external stream is published to by an
    internal operator (forbidden so source throttling stays deadlock-free,
    Section 5).
    """


class TimestampError(ReproError):
    """An operator emitted an event that does not advance time.

    Section 3 requires every output event's timestamp to be strictly greater
    than the input event's timestamp so that cyclic workflows remain
    well-defined.
    """


class SlateError(ReproError):
    """A slate could not be encoded, decoded, or accessed."""


class SlateTooLargeError(SlateError):
    """A slate exceeded the configured size limit.

    Section 5: "we encourage developers to keep individual slates small,
    e.g., many kilobytes rather than many megabytes." Engines may enforce a
    hard cap; exceeding it raises this error.
    """


class StoreError(ReproError):
    """The key-value store failed an operation."""


class QuorumError(StoreError):
    """Not enough replicas answered to satisfy the requested consistency."""


class WorkerFailedError(ReproError):
    """A peer worker (or its machine) could not be contacted."""


class EngineStoppedError(ReproError):
    """An operation was attempted on an engine that has been shut down."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


class AnalysisError(ReproError):
    """A static/dynamic analysis tool was misused or given bad input.

    Raised by :mod:`repro.analysis` when a lint target cannot be parsed,
    a rule registration is malformed, a trace file is not a span trace,
    or the race detector is attached to an already-running engine. A
    *finding* (lint hit, race, invariant violation) is never an
    exception — findings are data; this error means the tool itself
    could not run.
    """
