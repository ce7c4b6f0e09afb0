"""Every option earns its keep.

Each dataclass field of the engines' config classes must be *set* by
something that is not a test — a campaign cell, an mc model, the
CLI, an example, a bench workload — or be listed in
``UNSET`` below with the reason it stays. A field only tests set is a
module constant waiting to happen: it doubles the configuration space
that tests, campaigns and the covering array must span, for nobody.

The scan is syntactic. A field counts as set where a file outside the
class's own module passes it by keyword (or position) to the class, to
a subclass or to one of its classmethod factories; passes a keyword of
that name to any call that is not a config class (``replace()``,
``ClusterSpec.uniform(storage=...)``, a scenario forwarding
``**kwargs``); or spells the name as a string key of a dict or of a
subscript store (``kwargs["shedding"] = ...``). A keyword that only
forwards the same attribute (``x=cfg.x``) sets nothing. Matching by
name lets a field pass on a namesake's setter — ``ThreadedConfig.
overflow`` on ``SimConfig.overflow``'s — so the table in CHANGES.md
names each field's real caller; this test is the floor under it.

Constructors get the same treatment. A defaulted parameter of a
hand-written ``__init__`` in ``src/repro`` counts as set where a file
outside ``tests/`` passes it, by keyword or by position, to the class,
to a subclass, to ``cls(...)`` in one of its classmethods or through
``super().__init__``; a ``**spread`` of a ``dict(...)`` or ``{...}``
bound to a name in the same file passes its keys. Here the class's own
module counts (a constructor is often called beside its class), so does
a keyword that forwards a config field (``x=cfg.x`` is how a config
value reaches the object it configures), and nothing is matched loosely
by name: a parameter only tests pass, or one nobody passes, is listed in
``UNSET_PARAMS`` or becomes a constant.
"""

import ast
import inspect
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

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

#: Fields nothing outside ``tests/`` sets, and why each is still a field.
UNSET = {
    "ThinningPolicy.mode":
        "'bernoulli' is the plain inverse-probability-weighted estimator "
        "(arXiv:2606.16981) that tests/shedding/test_unbiased.py holds the "
        "stratified sampler against",
}


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


def keywords(call: ast.Call) -> Set[str]:
    """The keyword names one call passes, skipping ``x=cfg.x``."""
    return {keyword.arg for keyword in call.keywords
            if keyword.arg is not None
            and not (isinstance(keyword.value, ast.Attribute)
                     and keyword.value.attr == keyword.arg)}


def call_fields(call: ast.Call, cls: type) -> Set[str]:
    """The fields one ``cls(...)`` call passes."""
    return set(positional_fields(cls)[:len(call.args)]) | keywords(call)


def factories(cls: type) -> Dict[str, Set[str]]:
    """classmethod name -> the fields its ``cls(...)`` call passes."""
    found: Dict[str, Set[str]] = {}
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
                        found[method.name] = call_fields(call, cls)
    return found


FACTORIES = {cls: factories(cls) for cls in CONFIG_CLASSES}


def scanned_files() -> List[Path]:
    files: List[Path] = []
    for top in ("src/repro", "examples", "bench"):
        files += [path for path in sorted((ROOT / top).rglob("*.py"))
                  if "tests" not in path.parts]
    return files


def setters_in(path: Path) -> Tuple[Set[Tuple[type, str]], Set[str]]:
    """What one file sets: exact ``(config class, field)`` pairs, and
    names passed where the receiving class is not known."""
    exact: Set[Tuple[type, str]] = set()
    loose: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            cls = BY_NAME.get(getattr(func, "id", ""))
            made_by = None
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)):
                made_by = BY_NAME.get(func.value.id)
            if cls is not None:
                exact |= {(cls, name) for name in call_fields(node, cls)}
            elif made_by is not None:
                exact |= {(made_by, name) for name in
                          FACTORIES[made_by].get(func.attr, ())}
            else:
                loose |= keywords(node)
        elif isinstance(node, ast.Dict):
            loose |= {key.value for key in node.keys
                      if isinstance(key, ast.Constant)
                      and isinstance(key.value, str)}
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Store)
              and isinstance(node.slice, ast.Constant)
              and isinstance(node.slice.value, str)):
            loose.add(node.slice.value)
    return exact, loose


def unset_fields() -> List[str]:
    """``Class.field`` for every field no scanned file sets."""
    found = [(path, *setters_in(path)) for path in scanned_files()]
    missing = []
    for cls in CONFIG_CLASSES:
        home = Path(inspect.getsourcefile(cls)).resolve()
        for name in own_fields(cls):
            is_set = any(
                name in loose or any(
                    field == name and cls in owners(passed_to)
                    for passed_to, field in exact)
                for path, exact, loose in found if path != home)
            if not is_set:
                missing.append(f"{cls.__name__}.{name}")
    return missing


def test_every_config_field_has_a_setter_outside_tests_or_a_reason():
    assert sorted(unset_fields()) == sorted(UNSET)


def test_the_scan_sees_the_ways_a_field_is_set(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "LocalConfig(num_threads=2, queue_capacity=8)\n"
        "FlushPolicy.every(0.5)\n"
        "OverflowPolicy('drop')\n"
        "replace(config, heartbeat_s=1.0, trace=cfg.trace)\n"
        "kwargs['shedding'] = None\n"
        "dict(costs=1)\n"
        "{'two_choice': False}\n")
    exact, loose = setters_in(sample)
    assert exact == {(LocalConfig, "num_threads"),
                     (LocalConfig, "queue_capacity"),
                     (FlushPolicy, "kind"), (FlushPolicy, "interval_s"),
                     (OverflowPolicy, "kind")}
    assert loose == {"heartbeat_s", "shedding", "costs", "two_choice"}


#: Defaulted constructor parameters nothing outside ``tests/`` passes,
#: and why each is still a parameter.
OPERATOR_CONTRACT = ("the operator contract: OperatorSpec.instantiate "
                     "calls every operator class as cls(config, name)")
UNSET_PARAMS = {
    "SlateHTTPServer.host": "a deployment address",
    "SlateHTTPServer.port": "a deployment address",
    "ThreadedEngine.store": "the seam tests use to pass in a store",
    "Simulator.clock": "the seam tests use to pass in a clock",
    "VirtualClock.start": "the seam tests use to start a clock late",
    "Simulator.max_steps": "the runaway guard",
    "MinuteCounter.config": OPERATOR_CONTRACT,
    "MinuteCounter.name": OPERATOR_CONTRACT,
    "SplittingRetailerMapper.config": OPERATOR_CONTRACT,
    "SplittingRetailerMapper.name": OPERATOR_CONTRACT,
}


class Init:
    """One hand-written ``__init__``: its positional parameters (after
    ``self``) and the parameters that have a default."""

    def __init__(self, node: ast.FunctionDef) -> None:
        args = node.args
        self.positional = [a.arg for a in args.posonlyargs + args.args][1:]
        self.defaulted = self.positional[
            len(self.positional) - len(args.defaults):]
        self.defaulted += [a.arg for a, default in
                           zip(args.kwonlyargs, args.kw_defaults)
                           if default is not None]


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


def hand_written_inits() -> Dict[str, Init]:
    """class name -> its ``__init__``, for every class in ``src/repro``
    that writes one. Calls are matched by class name, so a name written
    twice keeps its first ``__init__`` (today only ``_Worker`` is, with
    no defaulted parameter)."""
    found: Dict[str, Init] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and item.name == "__init__"):
                        found.setdefault(node.name, Init(item))
    return found


INITS = hand_written_inits()
BASES = {name: names for path in scanned_files()
         for name, names in class_bases(ast.parse(path.read_text())).items()}


def init_owner(name: str) -> Optional[str]:
    """The class whose ``__init__`` a call of class ``name`` runs: the
    class itself or its nearest base that writes one (first base first)."""
    if name in INITS:
        return name
    for base in BASES.get(name, ()):
        if base != name and init_owner(base):
            return init_owner(base)
    return None


def spread_dicts(tree: ast.AST) -> Dict[str, Set[str]]:
    """name -> the keys of the ``dict(...)`` or ``{...}`` assigned to it."""
    found: Dict[str, Set[str]] = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            value = node.value
            if (isinstance(value, ast.Call)
                    and getattr(value.func, "id", "") == "dict"):
                found[node.targets[0].id] = keywords(value)
            elif isinstance(value, ast.Dict):
                found[node.targets[0].id] = {
                    key.value for key in value.keys
                    if isinstance(key, ast.Constant)}
    return found


def init_target(call: ast.Call, enclosing: Optional[str]) -> Optional[str]:
    """The class whose ``__init__`` one call runs, if the scan knows it."""
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "cls":
            return init_owner(enclosing) if enclosing else None
        return init_owner(func.id)
    if not isinstance(func, ast.Attribute):
        return None
    if (func.attr == "__init__" and isinstance(func.value, ast.Call)
            and getattr(func.value.func, "id", "") == "super"):
        for base in BASES.get(enclosing or "", ()):
            if init_owner(base):
                return init_owner(base)
        return None
    return init_owner(func.attr)  # module.Class(...)


def params_set_in(path: Path) -> Set[Tuple[str, str]]:
    """``(class, parameter)`` for every constructor argument one file
    passes."""
    tree = ast.parse(path.read_text())
    spreads = spread_dicts(tree)
    found: Set[Tuple[str, str]] = set()

    def visit(node: ast.AST, enclosing: Optional[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                target = init_target(child, enclosing)
                if target is not None:
                    leading = 0
                    for arg in child.args:
                        if isinstance(arg, ast.Starred):
                            break
                        leading += 1
                    passed = set(INITS[target].positional[:leading])
                    for keyword in child.keywords:
                        if keyword.arg is not None:
                            passed.add(keyword.arg)
                        elif isinstance(keyword.value, ast.Name):
                            passed |= spreads.get(keyword.value.id, set())
                    found.update((target, name) for name in passed)
            visit(child, child.name if isinstance(child, ast.ClassDef)
                  else enclosing)

    visit(tree, None)
    return found


def unset_params() -> List[str]:
    """``Class.parameter`` for every defaulted constructor parameter no
    scanned file passes."""
    passed: Set[Tuple[str, str]] = set()
    for path in scanned_files():
        passed |= params_set_in(path)
    return [f"{name}.{param}" for name, init in INITS.items()
            for param in init.defaulted if (name, param) not in passed]


def test_every_constructor_parameter_has_a_caller_outside_tests_or_a_reason():
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
        "Few(None, name='x')\n")
    for name, bases in class_bases(ast.parse(sample.read_text())).items():
        monkeypatch.setitem(BASES, name, bases)
    assert params_set_in(sample) == {
        ("ReplicatedKVStore", "node_names"),
        ("ReplicatedKVStore", "replication_factor"),
        ("ReplicatedKVStore", "compaction_threshold"),
        ("BloomFilter", "expected_items"),
        ("Thinner", "policy"), ("Thinner", "seed"),
        ("SlateCache", "capacity"), ("SlateCache", "on_evict"),
        ("Operator", "config"), ("Operator", "name")}
