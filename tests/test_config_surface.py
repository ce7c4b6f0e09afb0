"""Every option earns its keep: two real callers need two values.

A config field or a defaulted parameter is one more dimension that
tests, campaigns and the covering array must span. It is worth that
only where two callers that are not tests need *different* values; a
field every caller gives the same value is a module constant waiting to
happen.

Fields. Each dataclass field of the engines' config classes must take
at least two distinct values across the non-test code (``src/repro``,
``examples/``, ``bench/``), or be listed in ``UNSET`` with the reason it
stays. The census is syntactic:

* A construction of the class, of a subclass or through one of its
  classmethod factories, in a file outside the field's own module,
  gives the field the expression it passes (by keyword or position,
  or through a ``**spread`` of a ``dict(...)`` or ``{...}`` bound in
  the same file), or the field's default when it leaves the field
  unset. A construction with any other ``**spread`` gives the fields it
  does not name nothing: the scan cannot see them.
* A literal is its value and an upper-case name is a module constant
  (its value, where one module-level assignment gives it a literal).
  Any other expression counts as varying, which passes the field.
* A keyword that only forwards the same attribute (``x=cfg.x``) gives
  nothing.
* Where the scan cannot follow a value to its class it matches by
  name: a keyword passed to ``replace()``, to ``dict()`` or to a call
  whose callee takes it through ``**kwargs``, a key of a ``{...}``
  display and a subscript store (``kwargs["shedding"] = ...``) give
  their value to every field of that name. A keyword a function takes
  as a named parameter is that function's business; where the function
  passes it straight on to a config class (``ClusterSpec.uniform``'s
  ``cores=cores``), it gives its value to that field.

Parameters. A defaulted parameter of any function or method in
``src/repro`` counts as passed where a file outside ``tests/`` passes
it, by keyword or by position, or through such a ``**spread``. A call
reaches a constructor by class name (the class, a subclass, ``cls(...)``
in one of its classmethods, ``super().__init__``) and any other
function by its name, called bare or as an attribute. The defining
module counts (a helper is often called beside its definition), so does
a keyword that forwards a config field (``x=cfg.x`` is how a config
value reaches the object it configures). A parameter only tests pass,
or one nobody passes, becomes a constant or is listed in
``UNSET_PARAMS`` with its reason.
"""

import ast
import dataclasses
import inspect
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.cluster.topology import MachineSpec, NetworkSpec
from repro.elastic import AutoscalerConfig, MigrationConfig
from repro.muppet.local import LocalConfig, ThreadedConfig
from repro.muppet.local1 import Local1Config
from repro.muppet.queues import OverflowPolicy
from repro.shedding.controller import SheddingConfig
from repro.shedding.thinning import ThinningPolicy
from repro.sim.config import SimConfig
from repro.sim.costs import CostModel
from repro.slates.manager import FlushPolicy

ROOT = Path(__file__).resolve().parent.parent
CONFIG_CLASSES = (SimConfig, ThreadedConfig, LocalConfig, Local1Config,
                  AutoscalerConfig, MigrationConfig, SheddingConfig,
                  ThinningPolicy, FlushPolicy, OverflowPolicy, CostModel,
                  NetworkSpec, MachineSpec)
BY_NAME = {cls.__name__: cls for cls in CONFIG_CLASSES}

#: Fields with fewer than two non-test values, and why each is still a
#: field.
UNSET = {
    "ThinningPolicy.mode":
        "'bernoulli' is the plain inverse-probability-weighted estimator "
        "(arXiv:2606.16981) that tests/shedding/test_unbiased.py holds the "
        "stratified sampler against",
}

#: A value no literal or module constant spells: it passes the field.
VARYING = ("varying",)
Value = Tuple[Any, ...]


def own_fields(cls: type) -> List[str]:
    """The fields ``cls`` declares itself, in declaration order."""
    return list(cls.__dict__.get("__annotations__", {}))


def owners(cls: type) -> List[type]:
    """``cls`` and the config classes it inherits fields from."""
    return [base for base in cls.__mro__ if base in CONFIG_CLASSES]


def positional_fields(cls: type) -> List[str]:
    """Field names in ``cls(...)`` positional order (bases first)."""
    names: List[str] = []
    for base in reversed(owners(cls)):
        names += [n for n in own_fields(base) if n not in names]
    return names


def home(cls: type) -> Path:
    return Path(inspect.getsourcefile(cls)).resolve()


def literal(value: Any) -> Value:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return ("literal", float(value))
    return ("literal", repr(value))


def default_of(cls: type, name: str) -> Value:
    """The value a construction that leaves ``name`` unset gives it."""
    for item in dataclasses.fields(cls):
        if item.name == name:
            if item.default is not dataclasses.MISSING:
                return literal(item.default)
            return ("default", cls.__name__, name)
    raise KeyError(name)


def scanned_files() -> List[Path]:
    files: List[Path] = []
    for top in ("src/repro", "examples", "bench"):
        files += [path for path in sorted((ROOT / top).rglob("*.py"))
                  if "tests" not in path.parts]
    return files


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text())


TREES = {path: parse(path) for path in scanned_files()}


def module_constants() -> Dict[str, Set[Value]]:
    """Upper-case name -> the literal values module-level assignments
    give it, across the scanned files."""
    found: Dict[str, Set[Value]] = defaultdict(set)
    for tree in TREES.values():
        for node in tree.body:
            if (isinstance(node, (ast.Assign, ast.AnnAssign))
                    and node.value is not None):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if isinstance(target, ast.Name) and target.id.isupper():
                        try:
                            found[target.id].add(
                                literal(ast.literal_eval(node.value)))
                        except ValueError:
                            found[target.id].add(("const", target.id))
    return found


CONSTANTS = module_constants()


def value_of(node: ast.AST) -> Value:
    """The census value of one argument expression."""
    try:
        return literal(ast.literal_eval(node))
    except ValueError:
        pass
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else "")
    if name.isupper():
        values = CONSTANTS.get(name, set())
        return next(iter(values)) if len(values) == 1 else ("const", name)
    return VARYING


def copies_attribute(value: ast.AST, name: Optional[str]) -> bool:
    """``x=cfg.x``: a copy of a value some other config already holds."""
    return isinstance(value, ast.Attribute) and value.attr == name


def spread_dicts(tree: ast.AST) -> Dict[str, Dict[str, ast.AST]]:
    """name -> the keys (and value expressions) of the ``dict(...)`` or
    ``{...}`` assigned to it."""
    found: Dict[str, Dict[str, ast.AST]] = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            value = node.value
            if (isinstance(value, ast.Call)
                    and getattr(value.func, "id", "") == "dict"):
                found[node.targets[0].id] = {
                    kw.arg: kw.value for kw in value.keywords
                    if kw.arg is not None}
            elif isinstance(value, ast.Dict):
                found[node.targets[0].id] = {
                    key.value: item for key, item in zip(value.keys,
                                                         value.values)
                    if isinstance(key, ast.Constant)}
    return found


def call_arguments(call: ast.Call, positional: List[str],
                   spreads: Dict[str, Dict[str, ast.AST]]
                   ) -> Tuple[Dict[str, ast.AST], bool]:
    """name -> expression for what one call passes, given the callee's
    positional parameter names, and whether a ``**spread`` the scan
    cannot see may pass more."""
    passed: Dict[str, ast.AST] = {}
    for name, arg in zip(positional, call.args):
        if isinstance(arg, ast.Starred):
            break
        passed[name] = arg
    opaque = any(isinstance(arg, ast.Starred) for arg in call.args)
    for keyword in call.keywords:
        if keyword.arg is not None:
            passed[keyword.arg] = keyword.value
        elif (isinstance(keyword.value, ast.Name)
              and keyword.value.id in spreads):
            passed.update(spreads[keyword.value.id])
        else:
            opaque = True
    return passed, opaque


# -- callables: every def in src/repro, by the name a call spells ----------

class Signature:
    """One function's parameters: positional order (after ``self`` or
    ``cls`` for a method) and the ones that have a default."""

    def __init__(self, node: ast.FunctionDef, qualname: str,
                 is_method: bool) -> None:
        args = node.args
        self.qualname = qualname
        self.positional = [a.arg for a in args.posonlyargs + args.args]
        if is_method:
            self.positional = self.positional[1:]
        first_default = len(self.positional) - len(args.defaults)
        self.defaulted = self.positional[first_default:]
        self.defaulted += [a.arg for a, default in
                           zip(args.kwonlyargs, args.kw_defaults)
                           if default is not None]
        self.named = set(self.positional) | {a.arg for a in args.kwonlyargs}
        #: Index of the parameter a runner calls with its own ``*args``
        #: (``_kv_call(op, *args, **kwargs)``), or None.
        self.runs: Optional[int] = None
        if args.vararg is not None:
            for call in ast.walk(node):
                if (isinstance(call, ast.Call)
                        and getattr(call.func, "id", "") in self.positional
                        and any(isinstance(arg, ast.Starred)
                                and getattr(arg.value, "id", "")
                                == args.vararg.arg for arg in call.args)):
                    self.runs = self.positional.index(call.func.id)
        #: parameter -> (config class, field) it is passed straight to.
        self.forwards: Dict[str, Set[Tuple[type, str]]] = defaultdict(set)
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                cls = BY_NAME.get(getattr(call.func, "id", ""))
                if cls is None:
                    continue
                passed, _ = call_arguments(call, positional_fields(cls), {})
                for name, value in passed.items():
                    if isinstance(value, ast.Name) and value.id in self.named:
                        self.forwards[value.id].add((cls, name))


def definitions(tree: ast.AST, prefix: str = "",
                in_class: bool = False
                ) -> Iterator[Tuple[str, str, ast.FunctionDef, bool]]:
    """``(qualname, enclosing class, def, is_method)`` for every def."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from definitions(node, f"{prefix}{node.name}.", True)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            static = any(getattr(d, "id", "") == "staticmethod"
                         for d in node.decorator_list)
            owner = prefix[:-1].rsplit(".", 1)[-1] if in_class else ""
            yield (f"{prefix}{node.name}", owner, node,
                   in_class and not static)
            yield from definitions(node, f"{prefix}{node.name}.")


def index_callables() -> Tuple[Dict[str, Signature],
                               Dict[str, List[Signature]]]:
    """class name -> its hand-written ``__init__`` (a name written twice
    keeps its first), and function name -> every other def of that
    name, for every def in ``src/repro``."""
    inits: Dict[str, Signature] = {}
    functions: Dict[str, List[Signature]] = defaultdict(list)
    for path, tree in TREES.items():
        if not path.is_relative_to(ROOT / "src" / "repro"):
            continue
        for qualname, owner, node, is_method in definitions(tree):
            signature = Signature(node, qualname, is_method)
            if node.name == "__init__" and owner:
                inits.setdefault(owner, signature)
            else:
                functions[node.name].append(signature)
    return inits, functions


INITS, FUNCTIONS = index_callables()


def class_bases(tree: ast.AST) -> Dict[str, List[str]]:
    """class name -> the names of its bases, for one module."""
    found: Dict[str, List[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names = []
            for base in node.bases:
                if isinstance(base, ast.Subscript):  # Generic[T], Protocol[T]
                    base = base.value
                names.append(getattr(base, "id", getattr(base, "attr", "")))
            found.setdefault(node.name, names)
    return found


BASES = {name: names for tree in TREES.values()
         for name, names in class_bases(tree).items()}


def init_owner(name: str) -> Optional[str]:
    """The class whose ``__init__`` a call of class ``name`` runs: the
    class itself or its nearest base that writes one (first base first)."""
    if name in INITS:
        return name
    for base in BASES.get(name, ()):
        if base != name and init_owner(base):
            return init_owner(base)
    return None


def callees(call: ast.Call, enclosing: Optional[str]) -> List[Signature]:
    """The signatures one call may run, if the scan knows any."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "cls":
            owner = init_owner(enclosing) if enclosing else None
        else:
            owner = init_owner(func.id)
        if owner is not None:
            return [INITS[owner]]
        return FUNCTIONS.get(func.id, [])
    if not isinstance(func, ast.Attribute):
        return []
    if (func.attr == "__init__" and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", "") == "super"):
        for base in BASES.get(enclosing or "", ()):
            if init_owner(base):
                return [INITS[init_owner(base)]]
        return []
    owner = init_owner(func.attr)  # module.Class(...)
    if owner is not None:
        return [INITS[owner]]
    return FUNCTIONS.get(func.attr, [])


def calls(tree: ast.AST) -> Iterator[Tuple[ast.Call, Optional[str]]]:
    """Every call in one module, with the class it is written in."""
    def visit(node: ast.AST, enclosing: Optional[str]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield child, enclosing
            yield from visit(child, child.name if isinstance(
                child, ast.ClassDef) else enclosing)
    yield from visit(tree, None)


# -- the field census --------------------------------------------------------

def factories(cls: type) -> Dict[str, Dict[str, Value]]:
    """classmethod name -> field -> the value its ``cls(...)`` call
    gives (parameters count as varying, unset fields their default)."""
    found: Dict[str, Dict[str, Value]] = {}
    tree = ast.parse(inspect.getsource(inspect.getmodule(cls)))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == cls.__name__:
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                for call in ast.walk(method):
                    if (isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Name)
                            and call.func.id == "cls"):
                        passed, _ = call_arguments(
                            call, positional_fields(cls), {})
                        found[method.name] = {
                            name: (value_of(passed[name]) if name in passed
                                   else default_of(cls, name))
                            for name in positional_fields(cls)}
    return found


FACTORIES = {cls: factories(cls) for cls in CONFIG_CLASSES}

Census = Tuple[Dict[Tuple[type, str], Set[Value]], Dict[str, Set[Value]]]


def values_in(tree: ast.AST) -> Census:
    """What one file gives the config fields: values of exact
    ``(config class, field)`` pairs, and values of names passed where
    the receiving class is not known."""
    exact: Dict[Tuple[type, str], Set[Value]] = defaultdict(set)
    loose: Dict[str, Set[Value]] = defaultdict(set)
    spreads = spread_dicts(tree)
    for call, enclosing in calls(tree):
        func = call.func
        cls = BY_NAME.get(getattr(func, "id", ""))
        made_by = None
        if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                          ast.Name):
            made_by = BY_NAME.get(func.value.id)
        if cls is not None:
            passed, opaque = call_arguments(call, positional_fields(cls),
                                            spreads)
            for name in positional_fields(cls):
                if name not in passed:
                    if not opaque:
                        exact[cls, name].add(default_of(cls, name))
                elif not copies_attribute(passed[name], name):
                    exact[cls, name].add(value_of(passed[name]))
            continue
        if made_by is not None and func.attr in FACTORIES[made_by]:
            for name, value in FACTORIES[made_by][func.attr].items():
                exact[made_by, name].add(value)
            continue
        targets = callees(call, enclosing)
        named = set().union(*(sig.named for sig in targets))
        for sig in targets:
            passed, _ = call_arguments(call, sig.positional, spreads)
            for param, value in passed.items():
                for config, field in sig.forwards.get(param, ()):
                    exact[config, field].add(value_of(value))
        for keyword in call.keywords:
            if (keyword.arg is not None and keyword.arg not in named
                    and not copies_attribute(keyword.value, keyword.arg)):
                loose[keyword.arg].add(value_of(keyword.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and isinstance(key.value,
                                                                str):
                    loose[key.value].add(value_of(value))
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)):
                    loose[target.slice.value].add(value_of(node.value))
    return exact, loose


def field_values() -> Dict[str, Set[Value]]:
    """``Class.field`` -> every value the scanned files give it."""
    found = {path: values_in(tree) for path, tree in TREES.items()}
    census: Dict[str, Set[Value]] = {}
    for cls in CONFIG_CLASSES:
        for name in own_fields(cls):
            values: Set[Value] = set()
            for path, (exact, loose) in found.items():
                if path == home(cls):
                    continue
                values |= loose.get(name, set())
                for (passed_to, field), given in exact.items():
                    if field == name and cls in owners(passed_to):
                        values |= given
            census[f"{cls.__name__}.{name}"] = values
    return census


def single_valued() -> List[str]:
    """``Class.field`` for every field the non-test code gives fewer
    than two values."""
    return sorted(name for name, values in field_values().items()
                  if VARYING not in values and len(values) < 2)


def test_every_config_field_takes_two_values_outside_tests_or_a_reason():
    found = single_valued()
    flagged = sorted(set(found) - set(UNSET))
    stale = sorted(set(UNSET) - set(found))
    assert not flagged, f"one value outside tests (make constants): {flagged}"
    assert not stale, f"UNSET entries that now take two values: {stale}"


def test_the_scan_sees_the_ways_a_field_is_set(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "SPAN = 4\n"
        "LocalConfig(num_threads=2, queue_capacity=SPAN)\n"
        "LocalConfig(3, record_latency=cfg.record_latency)\n"
        "FlushPolicy.every(0.5)\n"
        "OverflowPolicy('drop')\n"
        "MigrationConfig(**unknown)\n"
        "replace(config, heartbeat_s=1.0, trace=cfg.trace)\n"
        "ClusterSpec.uniform(2, cores=1)\n"
        "kwargs['shedding'] = None\n"
        "dict(costs=threads)\n"
        "{'two_choice': False}\n")
    exact, loose = values_in(parse(sample))
    local = {name: exact[LocalConfig, name] for name in
             ("num_threads", "queue_capacity", "record_latency")}
    assert local == {"num_threads": {literal(2),
                                     default_of(LocalConfig, "num_threads")},
                     "queue_capacity": {("const", "SPAN"), literal(3)},
                     "record_latency": {literal(True)}}
    assert exact[FlushPolicy, "kind"] == {literal("interval")}
    assert exact[FlushPolicy, "interval_s"] == {VARYING}
    assert exact[OverflowPolicy, "kind"] == {literal("drop")}
    assert (MigrationConfig, "delta_round_s") not in exact
    assert exact[MachineSpec, "cores"] == {literal(1)}
    assert dict(loose) == {"heartbeat_s": {literal(1.0)},
                           "shedding": {literal(None)},
                           "costs": {VARYING},
                           "two_choice": {literal(False)}}


# -- the parameter census ----------------------------------------------------

#: Defaulted parameters nothing outside ``tests/`` passes, and why each
#: is still a parameter.
OPERATOR_CONTRACT = ("the operator contract: OperatorSpec.instantiate "
                     "calls every operator class as cls(config, name)")
OPERATOR_API = "the operator API Section 3 defines"
UNSET_PARAMS = {
    "SlateHTTPServer.host": "a deployment address",
    "SlateHTTPServer.port": "a deployment address",
    "ThreadedEngine.store": "the seam tests use to pass in a store",
    "Simulator.clock": "the seam tests use to pass in a clock",
    "VirtualClock.start": "the seam tests use to start a clock late",
    "Simulator.max_steps": "the runaway guard",
    "main.argv": "the seam tests use to pass a command line (sys.argv "
                 "otherwise)",
    "Context.publish.ts": OPERATOR_API + ": an operator may stamp what it "
                          "publishes",
    "Context.set_timer.payload": OPERATOR_API + ": a timer hands back what "
                                 "its operator gave it",
    "ReplicatedKVStore.pending_hints.name":
        "the per-node view of hinted handoff; a run reports the total",
    "e22_overload_run.seed":
        "E22's one source of randomness; tests vary it to show the run "
        "replays exactly under its seed",
    "replay_decisions.strict":
        "a replay that runs on past its recorded decisions on the default "
        "schedule: how tests reach the states behind a trail",
    "MinuteCounter.config": OPERATOR_CONTRACT,
    "MinuteCounter.name": OPERATOR_CONTRACT,
    "SplittingRetailerMapper.config": OPERATOR_CONTRACT,
    "SplittingRetailerMapper.name": OPERATOR_CONTRACT,
}


def passed_params(tree: ast.AST) -> Set[Tuple[str, str]]:
    """``(qualname, parameter)`` for every argument one file passes."""
    spreads = spread_dicts(tree)
    found: Set[Tuple[str, str]] = set()
    for call, enclosing in calls(tree):
        for sig in callees(call, enclosing):
            passed, _ = call_arguments(call, sig.positional, spreads)
            found.update((sig.qualname, name) for name in passed)
            if sig.runs is not None and len(call.args) > sig.runs:
                # A runner's call passes the rest to the function it got.
                run = ast.Call(func=call.args[sig.runs],
                               args=call.args[sig.runs + 1:],
                               keywords=[kw for kw in call.keywords
                                         if kw.arg not in sig.named])
                for target in callees(run, enclosing):
                    passed, _ = call_arguments(run, target.positional,
                                               spreads)
                    found.update((target.qualname, name) for name in passed)
    return found


def all_signatures() -> List[Signature]:
    return list(INITS.values()) + [sig for sigs in FUNCTIONS.values()
                                   for sig in sigs]


def param_key(sig: Signature, param: str) -> str:
    return f"{sig.qualname.replace('.__init__', '')}.{param}"


def unset_params() -> List[str]:
    """``qualname.parameter`` (``Class.parameter`` for a constructor)
    for every defaulted parameter no scanned file passes."""
    passed: Set[Tuple[str, str]] = set()
    for tree in TREES.values():
        passed |= passed_params(tree)
    return sorted(param_key(sig, param) for sig in all_signatures()
                  for param in sig.defaulted
                  if (sig.qualname, param) not in passed)


def test_the_scan_follows_a_runner_to_the_function_it_runs(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("self._kv_call(self.store.write, 'r', 'c', b'v',\n"
                      "              ttl=None, consistency=level)\n")
    passed = passed_params(parse(sample))
    assert {("ReplicatedKVStore.write", name) for name in
            ("row", "column", "value", "ttl", "consistency")} <= passed
    assert ("SlateManager._kv_call", "op") in passed


def test_every_defaulted_parameter_has_a_caller_outside_tests_or_a_reason():
    unset = unset_params()
    flagged = sorted(set(unset) - set(UNSET_PARAMS))
    stale = sorted(set(UNSET_PARAMS) - set(unset))
    assert not flagged, f"only tests pass (make them constants): {flagged}"
    assert not stale, f"UNSET_PARAMS entries that now have a caller: {stale}"


def test_the_scan_sees_the_ways_a_parameter_is_passed(tmp_path, monkeypatch):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "KW = dict(compaction_threshold=4)\n"
        "ReplicatedKVStore(['a'], 2, **KW)\n"
        "repro.kvstore.bloom.BloomFilter(8)\n"
        "class Loud(Thinner):\n"
        "    def __init__(self):\n"
        "        super().__init__(0.5, seed=1)\n"
        "class Cached(SlateCache):\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls(8, on_evict=print)\n"
        "class Few(Operator):\n"
        "    pass\n"
        "Few(None, name='x')\n"
        "sim.schedule_in(0.5, tick)\n"
        "constant_rate('S1', 100.0, duration_s=1.0)\n")
    for name, bases in class_bases(parse(sample)).items():
        monkeypatch.setitem(BASES, name, bases)
    assert passed_params(parse(sample)) == {
        ("ReplicatedKVStore.__init__", "node_names"),
        ("ReplicatedKVStore.__init__", "replication_factor"),
        ("ReplicatedKVStore.__init__", "compaction_threshold"),
        ("BloomFilter.__init__", "expected_items"),
        ("Thinner.__init__", "policy"), ("Thinner.__init__", "seed"),
        ("SlateCache.__init__", "capacity"),
        ("SlateCache.__init__", "on_evict"),
        ("Operator.__init__", "config"), ("Operator.__init__", "name"),
        ("Simulator.schedule_in", "delay"),
        ("Simulator.schedule_in", "action"),
        ("constant_rate", "sid"), ("constant_rate", "rate_per_s"),
        ("constant_rate", "duration_s")}
