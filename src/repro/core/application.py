"""MapUpdate applications: workflow graphs of maps and updates (Section 3).

"A MapUpdate application is a workflow of map and update functions ...
modeled as a directed graph (allowing cycles), whose nodes represent map and
update functions, and whose edges represent streams." The developer writes
the functions plus "a configuration file that includes the workflow graph";
:class:`Application` is that configuration file as a Python object.

The graph is validated eagerly: unknown streams, duplicate operator names,
internal streams nobody publishes, and operators publishing into external
streams are all rejected with :class:`WorkflowError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError, TopologicalSorter
from typing import (Any, Dict, Iterable, List, Optional, Set, Tuple, Type,
                    Union)

from repro.core.operators import Mapper, Operator, Updater
from repro.core.stream import StreamRegistry, StreamSpec
from repro.errors import WorkflowError

OperatorFactory = Union[Type[Operator], "_PrebuiltFactory"]


class _PrebuiltFactory:
    """Wraps a pre-built operator instance as a single-use factory.

    Muppet 1.0 instantiates a fresh copy of the operator per worker process
    (one reason it wastes memory, Section 4.5); passing a pre-built instance
    opts an operator out of that and shares the one object, as Muppet 2.0
    does by construction.
    """

    def __init__(self, instance: Operator) -> None:
        self.instance = instance

    def __call__(self, config: Dict[str, Any], name: str) -> Operator:
        return self.instance


@dataclass(frozen=True)
class OperatorSpec:
    """Static description of one node in the workflow graph.

    Attributes:
        name: Unique function name within the application (Appendix A:
            "each map and update function in the application is identified
            by unique name").
        kind: ``"map"`` or ``"update"``.
        factory: Callable ``(config, name) -> Operator`` — normally the
            operator class itself, matching the paper's construction
            contract.
        subscribes: Stream IDs this function consumes.
        publishes: Stream IDs this function may emit into.
        config: Per-function configuration passed to the factory.
    """

    name: str
    kind: str
    factory: OperatorFactory
    subscribes: Tuple[str, ...]
    publishes: Tuple[str, ...]
    config: Dict[str, Any] = field(default_factory=dict)

    def instantiate(self) -> Operator:
        """Build a fresh operator instance for this spec."""
        operator = self.factory(dict(self.config), self.name)
        expected = Mapper if self.kind == "map" else Updater
        if not isinstance(operator, expected):
            raise WorkflowError(
                f"operator {self.name!r} declared as {self.kind!r} but its "
                f"factory produced a {type(operator).__name__}"
            )
        return operator

    def declares_thinnable(self) -> bool:
        """True when this updater opts into probabilistic thinning.

        Resolved without instantiating (engines consult this while
        building routing tables): per-spec config wins, then a prebuilt
        instance's attribute, then the factory class attribute. Mappers
        are never thinnable — they hold no state to reconstruct.
        """
        if self.kind != "update":
            return False
        if "thinnable" in self.config:
            return bool(self.config["thinnable"])
        instance = getattr(self.factory, "instance", None)
        if instance is not None:  # _PrebuiltFactory
            return bool(getattr(instance, "thinnable", False))
        return bool(getattr(self.factory, "thinnable", False))


class Application:
    """A complete MapUpdate application: streams + operator workflow graph.

    Typical construction (compare the paper's Example 4 / Figure 1(b))::

        app = Application("retailer-counts")
        app.add_stream("S1", external=True)
        app.add_stream("S2")
        app.add_mapper("M1", RetailerMapper, subscribes=["S1"],
                       publishes=["S2"])
        app.add_updater("U1", CheckinCounter, subscribes=["S2"])
        app.validate()
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.streams = StreamRegistry()
        self._operators: Dict[str, OperatorSpec] = {}
        #: Streams whose slates/streams are the application's declared
        #: output (documentation aid; engines expose all streams anyway).
        self.output_sids: List[str] = []

    # -- construction ------------------------------------------------------
    def add_stream(self, sid: str, external: bool = False,
                   overflow: bool = False,
                   description: str = "") -> StreamSpec:
        """Declare a stream.

        External streams are fed only from outside; overflow streams are
        fed by the engine's queue-overflow mechanism (Section 4.3) and so
        need no declared publisher.
        """
        return self.streams.declare(
            StreamSpec(sid, external, overflow, description))

    def add_mapper(
        self,
        name: str,
        factory: Union[Type[Mapper], Mapper],
        subscribes: Iterable[str],
        publishes: Iterable[str] = (),
        config: Optional[Dict[str, Any]] = None,
    ) -> OperatorSpec:
        """Add a map function node to the workflow graph."""
        return self._add_operator("map", name, factory, subscribes,
                                  publishes, config)

    def add_updater(
        self,
        name: str,
        factory: Union[Type[Updater], Updater],
        subscribes: Iterable[str],
        publishes: Iterable[str] = (),
        config: Optional[Dict[str, Any]] = None,
    ) -> OperatorSpec:
        """Add an update function node to the workflow graph."""
        return self._add_operator("update", name, factory, subscribes,
                                  publishes, config)

    def _add_operator(
        self,
        kind: str,
        name: str,
        factory: Union[Type[Operator], Operator],
        subscribes: Iterable[str],
        publishes: Iterable[str],
        config: Optional[Dict[str, Any]],
    ) -> OperatorSpec:
        if name in self._operators:
            raise WorkflowError(f"duplicate operator name {name!r}")
        if isinstance(factory, Operator):
            factory = _PrebuiltFactory(factory)
        spec = OperatorSpec(
            name=name,
            kind=kind,
            factory=factory,
            subscribes=tuple(subscribes),
            publishes=tuple(publishes),
            config=dict(config or {}),
        )
        if not spec.subscribes:
            raise WorkflowError(f"operator {name!r} subscribes to nothing")
        self._operators[name] = spec
        return spec

    def mark_output(self, sid: str) -> None:
        """Record ``sid`` as an application output stream (docs aid)."""
        self.streams.spec(sid)
        if sid not in self.output_sids:
            self.output_sids.append(sid)

    # -- introspection -----------------------------------------------------
    def operators(self) -> List[OperatorSpec]:
        """All operator specs, sorted by name for determinism."""
        return [self._operators[n] for n in sorted(self._operators)]

    def operator(self, name: str) -> OperatorSpec:
        """Look up one operator spec by name."""
        try:
            return self._operators[name]
        except KeyError:
            raise WorkflowError(f"unknown operator {name!r}") from None

    def mappers(self) -> List[OperatorSpec]:
        """All map-function specs, sorted by name."""
        return [s for s in self.operators() if s.kind == "map"]

    def updaters(self) -> List[OperatorSpec]:
        """All update-function specs, sorted by name."""
        return [s for s in self.operators() if s.kind == "update"]

    def thinnable_updaters(self) -> List[OperatorSpec]:
        """Updaters that opted into probabilistic thinning, sorted."""
        return [s for s in self.updaters() if s.declares_thinnable()]

    def subscribers_of(self, sid: str) -> List[OperatorSpec]:
        """Operators subscribed to stream ``sid``, sorted by name."""
        return [s for s in self.operators() if sid in s.subscribes]

    def publishers_of(self, sid: str) -> List[OperatorSpec]:
        """Operators that may publish into stream ``sid``, sorted by name."""
        return [s for s in self.operators() if sid in s.publishes]

    def has_cycle(self) -> bool:
        """True if the workflow graph contains a cycle (allowed by §3).

        The graph's nodes are the operators and the streams (prefixed
        ``"stream:"`` so the two namespaces cannot collide); a stream
        precedes its subscribers, an operator the streams it publishes.
        """
        predecessors: Dict[str, Set[str]] = {}
        for spec in self.operators():
            predecessors.setdefault(spec.name, set()).update(
                f"stream:{sid}" for sid in spec.subscribes)
            for sid in spec.publishes:
                predecessors.setdefault(f"stream:{sid}", set()).add(spec.name)
        try:
            TopologicalSorter(predecessors).prepare()
        except CycleError:
            return True
        return False

    # -- validation ----------------------------------------------------------
    def validate(self) -> "Application":
        """Check the workflow graph; raise :class:`WorkflowError` if bad.

        Rules:
          * every subscribed/published stream is declared;
          * no operator publishes into an external stream (keeps source
            throttling deadlock-free, Section 5);
          * every internal stream has at least one publisher (otherwise it
            can never carry events);
          * at least one external stream exists (the application needs a
            source);
          * every external stream with no subscribers is flagged.
        Returns self, for chaining.
        """
        if not self._operators:
            raise WorkflowError(f"application {self.name!r} has no operators")
        externals = set(self.streams.external_sids())
        if not externals:
            raise WorkflowError(
                f"application {self.name!r} declares no external stream"
            )
        for spec in self.operators():
            for sid in spec.subscribes + spec.publishes:
                if sid not in self.streams:
                    raise WorkflowError(
                        f"operator {spec.name!r} references undeclared "
                        f"stream {sid!r}"
                    )
            for sid in spec.publishes:
                if sid in externals:
                    raise WorkflowError(
                        f"operator {spec.name!r} publishes into external "
                        f"stream {sid!r}; external streams are input-only"
                    )
        for sid in self.streams.internal_sids():
            if self.streams.spec(sid).overflow:
                continue  # fed by the engine's overflow mechanism
            if not self.publishers_of(sid):
                raise WorkflowError(
                    f"internal stream {sid!r} has no publisher"
                )
        return self
