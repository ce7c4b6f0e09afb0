"""Execution census: which functions of ``src/repro`` does anything that
is not a test enter?

The entry points are what a user or the CI runs: every campaign at
``--smoke --workers 1`` with its ``check --fresh``, ``campaign render``
and ``list``, the ``analyze`` commands (lint, races, the three traced
invariant runs and a ``--trace`` file), ``mc explore`` (DPOR with
``--emit``, and ``--naive``), ``mc stats``, both counterexample replays,
every README CLI line, the ``examples/`` scripts and the four bench
workloads at ``--trace 0`` and ``--trace 1``. Each runs in a child
interpreter under ``sys.settrace`` / ``threading.settrace``, which
record every code object entered (the hook returns ``None``, so no line
is traced).

What is counted: every top-level function and every method of a
top-level class (nested classes included) under ``src/repro``. A
nested function or lambda counts with the function it is written in.
Dunder methods, ``@abstractmethod``\\ s and stub bodies (only a
docstring, ``pass``, ``...`` or ``raise NotImplementedError``) are not
counted. A function that ``bench/`` calls (its tests aside) counts as
entered, since the benchmark's full-length runs may reach what a short
run does not; a call names a function by its class (``Class.name(...)``),
as a bare module-level name, or by a method name that only one counted
function has and no builtin ``dict``, ``list``, ``set``, ``str`` or
``bytes`` defines (a bench ``d.setdefault(...)`` is a dict's).

Run the whole census (about 15 minutes of single-process time)::

    PYTHONPATH=src python -m tests.census --jobs 2

It exits 1 when a never-entered function is missing from
``tests/test_census.py``'s ``UNREACHED`` table, or a listed one is
entered.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import contextlib
import io
import json
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Set, Tuple

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: A place in the source: ``(absolute file path, first line)``.
Site = Tuple[str, int]

#: Method names a builtin receiver answers: a bench ``x.name(...)`` with
#: one of these names may not call the package at all.
BUILTIN_METHODS = frozenset(
    name for kind in (dict, list, set, str, bytes) for name in dir(kind))

STUB_RAISES = {"NotImplementedError"}


@dataclass(frozen=True)
class Function:
    """One counted function: where it is and what it is called."""

    qualname: str  # ``module:Class.method`` or ``module:function``
    path: str
    first: int  # first decorator line, as ``co_firstlineno`` reads it
    last: int
    lines: int


# -- what is counted ---------------------------------------------------------

def _is_stub(node: ast.AST) -> bool:
    body = list(node.body)  # type: ignore[attr-defined]
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant) and isinstance(
            body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
            and stmt.value.value is Ellipsis:
        return True
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id in STUB_RAISES
    return False


def _is_abstract(node: ast.AST) -> bool:
    for deco in node.decorator_list:  # type: ignore[attr-defined]
        name = deco.attr if isinstance(deco, ast.Attribute) else getattr(
            deco, "id", "")
        if name == "abstractmethod":
            return True
    return False


def _counted(node: ast.AST) -> bool:
    name = node.name  # type: ignore[attr-defined]
    dunder = name.startswith("__") and name.endswith("__")
    return not (dunder or _is_abstract(node) or _is_stub(node))


def _defs(body: Iterable[ast.stmt], prefix: str
          ) -> Iterable[Tuple[str, ast.AST]]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, f"{prefix}{node.name}.")


def functions(root: Path = SRC / "repro", package: str = "repro"
              ) -> Dict[str, Function]:
    """Every counted function under ``root`` (the directory of
    ``package``), by qualified name."""
    found: Dict[str, Function] = {}
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        module = ".".join((package,) + parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, node in _defs(tree.body, ""):
            if not _counted(node):
                continue
            decorators = node.decorator_list  # type: ignore[attr-defined]
            first = min([node.lineno] + [d.lineno for d in decorators])
            last = node.end_lineno  # type: ignore[attr-defined]
            found[f"{module}:{name}"] = Function(
                f"{module}:{name}", str(path.resolve()), first, last,
                last - first + 1)
    return found


def bench_called_names(root: Path = REPO / "bench") -> Set[str]:
    """What ``bench/`` calls outside its tests: ``Class.name`` for a call
    on a capitalised name, ``name`` for a bare call and ``.name`` for a
    call on any other receiver."""
    names: Set[str] = set()
    for path in root.rglob("*.py"):
        if "tests" in path.relative_to(root).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                owner = func.value
                if isinstance(owner, ast.Name) and owner.id[:1].isupper():
                    names.add(f"{owner.id}.{func.attr}")
                else:
                    names.add(f".{func.attr}")
    return names


def _called_from_bench(defs: Mapping[str, Function],
                       bench_names: Set[str]) -> Set[str]:
    """The counted functions a ``bench/`` call names unambiguously: by
    class, by module-level name, or by a method name only they have and
    no builtin receiver defines."""
    owners: Dict[str, List[str]] = {}
    for name in defs:
        owners.setdefault(name.rpartition(".")[2].rpartition(":")[2],
                          []).append(name)
    called = set()
    for name in defs:
        path = name.partition(":")[2]
        owner, _, short = path.rpartition(".")
        by_class = f"{owner.rpartition('.')[2]}.{short}"
        if (path in bench_names or owner and by_class in bench_names
                or f".{short}" in bench_names and len(owners[short]) == 1
                and short not in BUILTIN_METHODS):
            called.add(name)
    return called


# -- recording what runs -----------------------------------------------------

@contextlib.contextmanager
def recording(sites: Set[Site]):
    """Record ``(file, first line)`` of every code object entered, on
    this thread and on every thread started inside the block."""
    codes: Set[object] = set()
    add = codes.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    sys.settrace(hook)
    threading.settrace(hook)
    try:
        yield
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
        for code in list(codes):
            sites.add((os.path.realpath(code.co_filename),  # type: ignore
                       code.co_firstlineno))  # type: ignore[attr-defined]


def entered(defs: Mapping[str, Function], sites: Iterable[Site]
            ) -> Set[str]:
    """Qualified names of the functions some site lies inside."""
    by_file: Dict[str, List[Function]] = {}
    for fn in defs.values():
        by_file.setdefault(fn.path, []).append(fn)
    starts: Dict[str, List[int]] = {}
    for path, fns in by_file.items():
        fns.sort(key=lambda fn: fn.first)
        starts[path] = [fn.first for fn in fns]
    hit: Set[str] = set()
    for path, line in sites:
        fns = by_file.get(path)
        if not fns:
            continue
        i = bisect.bisect_right(starts[path], line) - 1
        if i >= 0 and line <= fns[i].last:
            hit.add(fns[i].qualname)
    return hit


def never_entered(defs: Mapping[str, Function], sites: Iterable[Site],
                  bench_names: Set[str] = frozenset()) -> Set[str]:
    """Counted functions no site enters and ``bench/`` does not call."""
    hit = entered(defs, sites) | _called_from_bench(defs, bench_names)
    return set(defs) - hit


def problems(never: Set[str], unreached: Mapping[str, str]) -> List[str]:
    """What the gate fails on: a never-entered function the table does
    not list, and a listed one that is entered."""
    found = [f"never entered and not in UNREACHED: {name}"
             for name in sorted(set(never) - set(unreached))]
    found += [f"in UNREACHED but entered: {name}"
              for name in sorted(set(unreached) - set(never))]
    return found


# -- the entry points --------------------------------------------------------

def _cli(*argv: str) -> None:
    from repro.cli import main
    main(list(argv))


def _campaign(name: str, work: Path) -> None:
    _cli("campaign", "run", name, "--smoke", "--workers", "1",
         "--out", str(work))
    _cli("campaign", "check", name, "--fresh", str(work))


def _render(work: Path) -> None:
    # Render writes the committed markdown path: do it in a copy.
    shutil.copytree(REPO / "campaigns" / "results",
                    work / "campaigns" / "results")
    with _cwd(work):
        _cli("campaign", "render", "capacity")
    _cli("campaign", "list")


def _readme_cli(work: Path) -> None:
    app = str(REPO / "examples" / "configs" / "retailer.json")
    trace = str(work / "checkins.jsonl")
    spans = str(work / "spans.jsonl")
    _cli("validate", "--app", app)
    _cli("generate", "--kind", "checkins", "--rate", "500",
         "--duration", "10", "--out", trace)
    _cli("run", "--app", app, "--trace", trace, "--dump", "U1")
    _cli("simulate", "--app", app, "--trace", trace, "--machines", "8",
         "--engine", "muppet1")
    _cli("simulate", "--app", app, "--trace", trace, "--trace-out", spans,
         "--metrics-out", str(work / "metrics.json"), "--timeline")
    _cli("analyze", "invariants", "--trace", spans,
         "--checks", "fifo,watermarks")
    _cli("analyze", "invariants", "--trace", spans)


def _mc(work: Path) -> None:
    _cli("analyze", "mc", "explore", "--max-schedules", "500",
         "--emit", str(work / "mc"))
    _cli("analyze", "mc", "explore", "--model", "recovery",
         "--max-schedules", "0")
    _cli("analyze", "mc", "explore", "--naive", "--max-schedules", "500")
    _cli("analyze", "mc", "stats", "--model", "recovery")
    for artifact in sorted((REPO / "counterexamples").glob("*.json")):
        _cli("analyze", "mc", "replay", str(artifact))


def _example(script: str) -> None:
    runpy.run_path(str(REPO / "examples" / script), run_name="__main__")


def _bench(workload: str, trace: int, work: Path) -> None:
    if str(REPO) not in sys.path:
        sys.path.insert(0, str(REPO))
    from bench.cli import main
    main(["--workload", workload, "--seconds", "1.5", "--trace", str(trace),
          "--out", str(work)])


def entry_points() -> Dict[str, Callable[[Path], None]]:
    """Label -> callable taking a scratch directory."""
    from repro.campaign.specs import SPECS
    entries: Dict[str, Callable[[Path], None]] = {}
    for name in SPECS:
        entries[f"campaign:{name}"] = (
            lambda work, name=name: _campaign(name, work))
    entries["campaign render, list"] = _render
    entries["analyze lint"] = lambda work: (
        _cli("analyze", "lint", str(SRC / "repro")),
        _cli("analyze", "lint", "--list-rules"))
    entries["analyze races"] = lambda work: _cli(
        "analyze", "races", "--events", "2000", "--threads", "4")
    for flag in ("--e6d", "--e22", "--e24"):
        extra = ("--overload", "2.0") if flag == "--e22" else ()
        entries[f"analyze invariants {flag}"] = (
            lambda work, flag=flag, extra=extra:
            _cli("analyze", "invariants", flag, *extra))
    entries["analyze mc"] = _mc
    entries["README CLI"] = _readme_cli
    for path in sorted((REPO / "examples").glob("*.py")):
        entries[f"example:{path.name}"] = (
            lambda work, script=path.name: _example(script))
    for workload in ("sim_chain", "sim_eo", "local_tweets", "store_churn"):
        for trace in (0, 1):
            entries[f"bench:{workload}:{trace}"] = (
                lambda work, workload=workload, trace=trace:
                _bench(workload, trace, work))
    return entries


@contextlib.contextmanager
def _cwd(path: Path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def run_entry(label: str) -> Set[Site]:
    """Run one entry point in this process, quietly, from the repo root;
    return the sites it entered. Recording starts before ``repro`` is
    imported: what a module runs at import time counts."""
    sites: Set[Site] = set()
    with tempfile.TemporaryDirectory() as tmp, _cwd(REPO), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        with recording(sites):
            entry_points()[label](Path(tmp))
    return sites


def run_all(labels: List[str], jobs: int, out: Path) -> Set[Site]:
    """Run each entry point in a child interpreter, ``jobs`` at a time;
    return the union of the sites they entered."""
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(REPO)] + [p for p in [env.get("PYTHONPATH")] if p])
    pending = list(enumerate(labels))
    running: List[Tuple[str, Path, subprocess.Popen, float]] = []
    failed: List[str] = []
    sites: Set[Site] = set()
    while pending or running:
        while pending and len(running) < jobs:
            index, label = pending.pop(0)
            target = out / f"{index:03d}.json"
            command = [sys.executable, "-m", "tests.census", "--entry", label,
                       "--sites", str(target)]
            running.append((label, target, subprocess.Popen(
                command, cwd=REPO, env=env), time.perf_counter()))
        time.sleep(0.2)
        for item in list(running):
            label, target, child, started = item
            if child.poll() is None:
                continue
            running.remove(item)
            took = time.perf_counter() - started
            print(f"census: {label} ({took:.0f} s, exit {child.returncode})",
                  flush=True)
            if child.returncode != 0:
                failed.append(label)
                continue
            for path, line in json.loads(target.read_text()):
                sites.add((path, line))
    if failed:
        raise RuntimeError(f"census entries failed: {failed}")
    return sites


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.census",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="entry points run at once (default 1)")
    parser.add_argument("--only", action="append", default=None,
                        metavar="PREFIX",
                        help="run only entry points with this label prefix")
    parser.add_argument("--entry", help=argparse.SUPPRESS)
    parser.add_argument("--sites", help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)
    if ns.entry is not None:
        sites = run_entry(ns.entry)
        Path(ns.sites).write_text(json.dumps(sorted(sites)))
        return 0
    labels = [label for label in entry_points() if ns.only is None
              or any(label.startswith(prefix) for prefix in ns.only)]
    with tempfile.TemporaryDirectory() as tmp:
        sites = run_all(labels, ns.jobs, Path(tmp))
    from tests.test_census import UNREACHED
    defs = functions()
    never = never_entered(defs, sites, bench_called_names())
    lines = sum(defs[name].lines for name in never)
    print(f"census: {len(never)} of {len(defs)} counted functions "
          f"({lines} lines) never entered")
    for name in sorted(never):
        print(f"  {defs[name].lines:4d}  {name}")
    if ns.only is not None:
        return 0
    found = problems(never, UNREACHED)
    for problem in found:
        print(f"census: FAIL {problem}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
