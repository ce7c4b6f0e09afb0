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
"""

import ast
import inspect
from pathlib import Path
from typing import Dict, List, Set, Tuple

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
