"""The docs name things that exist.

README.md, DESIGN.md and EXPERIMENTS.md point at files and show
commands; a deleted script or a renamed flag leaves them pointing at
nothing, and nobody reads prose the way a test does. So, syntactically
(the ``test_config_surface.py`` way):

* every relative markdown link resolves;
* every ``dir/file.ext`` path resolves, wherever it stands (prose,
  backticks, a fenced command), and so does every directory named in
  backticks (``dir/``) or at the start of a line of a fenced block (the
  layout tree) — from the repo root, ``src/`` or ``src/repro/`` (the
  docs say ``sim/runtime.py``). A path with a placeholder (``<name>``,
  ``*``, ``{a,b}``), an absolute path and a bare file name are not
  checked;
* every ``python -m repro ...`` line of a fenced block parses against
  the real argparse tree;
* every dotted ``repro.x.y`` name resolves: the longest prefix that
  imports, then ``getattr`` for the rest (a deleted class or hook leaves
  its name behind in prose);
* every backticked ```Class.attr``` whose ``Class`` is defined under
  ``src/repro`` names a member of it: a class attribute or method, a
  dataclass field, or a ``self.attr`` its own or a base class's code
  assigns (a deleted field or method leaves its name behind too);
* every ``python`` block parses, and passes a config class of
  ``test_config_surface.CONFIG_CLASSES`` only keywords that are its
  fields (a deleted knob leaves its name behind in a snippet);
* EXPERIMENTS.md links every registered campaign's table;
* CHANGES.md stays wrapped at 100 columns (it was 113 kB in 18 lines).
"""

import ast
import dataclasses
import importlib
import inspect
import re
import shlex
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

from repro.campaign.specs import SPECS
from repro.cli import _build_parser
from tests.test_config_surface import BY_NAME

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
#: Where a doc's relative path may start.
BASES = (ROOT, ROOT / "src", ROOT / "src" / "repro")

LINK = re.compile(r"\]\(([^)\s]+)\)")
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.MULTILINE | re.DOTALL)
FENCE = re.compile(r"^```.*?$(.*?)^```$", re.MULTILINE | re.DOTALL)
_DIRS = r"(?:[\w.\-]+/)+"
FILE_PATH = re.compile(
    rf"(?<![\w/.\-:<>$])({_DIRS}[\w.\-]+\.[a-z]{{1,5}})\b(?![/<{{*])")
TICKED_DIR = re.compile(rf"`({_DIRS})`")
TREE_DIR = re.compile(rf"^\s*({_DIRS})\s", re.MULTILINE)
DOTTED = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")
TICKED_ATTR = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)")


def doc_text(doc: str) -> str:
    return (ROOT / doc).read_text()


def links(doc: str) -> List[str]:
    targets = (target.split("#")[0] for target in LINK.findall(doc_text(doc)))
    return sorted({t for t in targets if t and "://" not in t})


def named_paths(doc: str) -> List[str]:
    text = doc_text(doc)
    found = set(FILE_PATH.findall(text)) | set(TICKED_DIR.findall(text))
    for block in FENCE.findall(text):
        found.update(TREE_DIR.findall(block))
    return sorted(found)


def dotted_names(doc: str) -> List[str]:
    return sorted(set(DOTTED.findall(doc_text(doc))))


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute reached from
    the longest importable prefix by ``getattr``."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(found, attr):
                return False
            found = getattr(found, attr)
        return True
    return False


def repro_classes() -> Dict[str, List[str]]:
    """Class name -> the modules under ``src/repro`` defining it."""
    found: Dict[str, List[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                found.setdefault(node.name, []).append(module)
    return found


def _assigned_on_self(cls: type) -> Set[str]:
    """``self.x`` targets in the code of ``cls`` and its repro bases."""
    names: Set[str] = set()
    for klass in cls.__mro__:
        if not klass.__module__.startswith("repro"):
            continue
        for node in ast.walk(ast.parse(inspect.getsource(klass))):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                names.add(node.attr)
    return names


def has_member(module: str, name: str, attr: str) -> bool:
    cls = getattr(importlib.import_module(module), name)
    return (hasattr(cls, attr)
            or attr in getattr(cls, "__dataclass_fields__", {})
            or attr in _assigned_on_self(cls))


def ticked_attributes(doc: str) -> Iterator[Tuple[int, str, str]]:
    """``(line, Class, attr)`` of each backticked ```Class.attr```."""
    for number, line in enumerate(doc_text(doc).splitlines(), 1):
        for match in TICKED_ATTR.finditer(line):
            yield number, match.group(1), match.group(2)


def repro_commands(doc: str) -> Iterator[Tuple[str, List[str]]]:
    """``(line, argv)`` of each ``python -m repro`` command in a fenced
    block: continuation lines joined, the trailing comment dropped."""
    for block in FENCE.findall(doc_text(doc)):
        for line in block.replace("\\\n", " ").splitlines():
            _, command, args = line.partition("python -m repro ")
            if command:
                yield line.strip(), shlex.split(args, comments=True)


def python_blocks() -> List[Tuple[str, str]]:
    """``(doc#n, code)`` of every ``python`` block of the docs."""
    return [(f"{doc}#{n}", code) for doc in DOCS
            for n, code in enumerate(PYTHON_BLOCK.findall(doc_text(doc)), 1)]


def unknown_config_keywords(code: str) -> List[str]:
    """``Class(keyword=...)`` of every keyword a block passes a config
    class that is not one of its fields."""
    bad = []
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.Call):
            name = (node.func.id if isinstance(node.func, ast.Name)
                    else getattr(node.func, "attr", ""))
            cls = BY_NAME.get(name)
            if cls is None:
                continue
            fields = {item.name for item in dataclasses.fields(cls)}
            bad += [f"{name}({keyword.arg}=...)" for keyword in node.keywords
                    if keyword.arg is not None and keyword.arg not in fields]
    return bad


@pytest.mark.parametrize("where, code", python_blocks(),
                         ids=[where for where, _ in python_blocks()])
def test_python_blocks_pass_config_classes_their_fields(where, code):
    bad = unknown_config_keywords(code)
    assert not bad, f"{where} passes knobs that do not exist: {bad}"


@pytest.mark.parametrize("doc", DOCS)
def test_relative_links_resolve(doc):
    dead = [target for target in links(doc) if not (ROOT / target).exists()]
    assert not dead, f"{doc} links to missing files: {dead}"


@pytest.mark.parametrize("doc", DOCS)
def test_named_paths_resolve(doc):
    dead = [path for path in named_paths(doc)
            if not any((base / path).exists() for base in BASES)]
    assert not dead, f"{doc} names missing paths: {dead}"


@pytest.mark.parametrize("doc", DOCS)
def test_repro_commands_parse(doc, capsys):
    parser = _build_parser()
    bad = []
    for line, argv in repro_commands(doc):
        try:
            parser.parse_args(argv)
        except SystemExit:
            bad.append(f"{line}  [{capsys.readouterr().err.splitlines()[-1]}]")
    assert not bad, f"{doc} shows commands the CLI rejects: {bad}"


@pytest.mark.parametrize("doc", DOCS)
def test_dotted_names_resolve(doc):
    dead = [name for name in dotted_names(doc) if not resolves(name)]
    assert not dead, f"{doc} names what does not exist: {dead}"


@pytest.mark.parametrize("doc", DOCS)
def test_class_attributes_resolve(doc):
    classes = repro_classes()
    dead = [f"{doc}:{number} {name}.{attr}"
            for number, name, attr in ticked_attributes(doc)
            if name in classes and not any(
                has_member(module, name, attr) for module in classes[name])]
    assert not dead, f"{doc} names members that do not exist: {dead}"


def test_every_campaign_is_linked_from_experiments():
    linked = set(links("EXPERIMENTS.md"))
    missing = [name for name in SPECS
               if f"campaigns/results/{name}.md" not in linked]
    assert not missing, f"EXPERIMENTS.md links no table of {missing}"


def test_changes_md_is_wrapped():
    """A line may run over only where it cannot be broken: a table row,
    or a single token (a URL, a test id, an ``a/b/c`` list of names)."""
    long = [number for number, line in
            enumerate(doc_text("CHANGES.md").splitlines(), 1)
            if len(line) > 100 and not line.startswith("|")
            and len(line.split()) > 1]
    assert not long, f"CHANGES.md lines over 100 characters: {long}"


def test_the_scan_sees_what_it_should():
    """The patterns are not vacuous: README's campaign commands and a
    known path and link are among what they extract."""
    commands = [argv for _, argv in repro_commands("README.md")]
    assert ["campaign", "list"] in commands
    assert "src/repro/campaign/golden.py" in named_paths("README.md")
    assert {"bench/", "kvstore/"} <= set(named_paths("DESIGN.md"))
    assert "campaigns/results/perf_baseline.md" in links("EXPERIMENTS.md")
    assert "repro.muppet.local.ThreadedEngine" in dotted_names("DESIGN.md")
    assert resolves("repro.muppet.master.Master.report_failure")
    assert not resolves("repro.muppet.master.Master.no_such_hook")
    assert not resolves("repro.no_such_module")
    assert ("SimRuntime", "_change_ring") in {
        (name, attr) for _, name, attr in ticked_attributes("DESIGN.md")}
    assert has_member("repro.sim.runtime", "_Machine", "replay_pins")
    assert has_member("repro.sim.report", "SimReport", "dataplane")
    assert not has_member("repro.muppet.local1", "Local1Config",
                          "poll_interval_s")
    assert len(python_blocks()) >= 10
    assert sorted(unknown_config_keywords(
        "SimConfig(queue_capacity=8, autoscale=AutoscalerConfig(\n"
        "    max_machines=4, cooldown_s=1.0))\n"
        "LocalConfig(num_threads=2, poll_s=0.1)")) == [
            "AutoscalerConfig(cooldown_s=...)", "LocalConfig(poll_s=...)"]
