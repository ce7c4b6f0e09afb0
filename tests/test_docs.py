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
* EXPERIMENTS.md links every registered campaign's table;
* CHANGES.md stays wrapped at 100 columns (it was 113 kB in 18 lines).
"""

import re
import shlex
from pathlib import Path
from typing import Iterator, List, Tuple

import pytest

from repro.campaign.specs import SPECS
from repro.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
#: Where a doc's relative path may start.
BASES = (ROOT, ROOT / "src", ROOT / "src" / "repro")

LINK = re.compile(r"\]\(([^)\s]+)\)")
FENCE = re.compile(r"^```.*?$(.*?)^```$", re.MULTILINE | re.DOTALL)
_DIRS = r"(?:[\w.\-]+/)+"
FILE_PATH = re.compile(
    rf"(?<![\w/.\-:<>$])({_DIRS}[\w.\-]+\.[a-z]{{1,5}})\b(?![/<{{*])")
TICKED_DIR = re.compile(rf"`({_DIRS})`")
TREE_DIR = re.compile(rf"^\s*({_DIRS})\s", re.MULTILINE)


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


def repro_commands(doc: str) -> Iterator[Tuple[str, List[str]]]:
    """``(line, argv)`` of each ``python -m repro`` command in a fenced
    block: continuation lines joined, the trailing comment dropped."""
    for block in FENCE.findall(doc_text(doc)):
        for line in block.replace("\\\n", " ").splitlines():
            _, command, args = line.partition("python -m repro ")
            if command:
                yield line.strip(), shlex.split(args, comments=True)


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
