"""MUP009: per-event allocation in ``# hot-path`` functions.

The compiled per-event path (E23; ``bench``'s ``sim_chain`` measures
it) lives or dies on per-event allocation discipline: at ~210k steps
per E1 run, one extra dict literal or a ``dataclasses.replace`` (which
re-runs ``__init__`` and validation) per event is a measurable
wall-clock regression. Functions on the per-event path are marked with
a ``# hot-path`` comment on their signature; inside them this rule flags

* ``dataclasses.replace(...)`` calls — replace re-allocates through the
  constructor; hot code should build the new record directly (the Event
  NamedTuple stamps via ``tuple.__new__``), and
* dict literals (``{...}``, including ``{}``) — each one is a fresh
  allocation per event; hoist it to setup code, reuse a preallocated
  mapping, or keep the state in slots/locals.

Cold code is untouched: the rule only looks inside marked functions,
and a justified allocation suppresses with
``# noqa: MUP009 -- reason`` like every other MUP rule.
"""

from __future__ import annotations

import ast
from typing import List, Set, Tuple

from repro.analysis.lint import Finding, LintRule, register_rule
from repro.analysis.rules.base import canonical_name, import_aliases

#: The marker engines put on per-event functions' signature lines.
_MARKER = "# hot-path"


def _is_hot(node: ast.AST, source_lines: List[str]) -> bool:
    """Does the function's signature carry the ``# hot-path`` marker?

    The marker may sit on any physical line of the signature (multi-line
    defs put it on the last one); the scan stops before the first body
    statement so docstring text can never false-positive.
    """
    stop = node.body[0].lineno if node.body else node.lineno + 1
    for lineno in range(node.lineno, stop):
        if lineno <= len(source_lines) and _MARKER in source_lines[lineno - 1]:
            return True
    return False


@register_rule
class HotPathAllocationRule(LintRule):
    """Flag per-event allocation inside ``# hot-path`` functions."""

    code = "MUP009"
    name = "hot-path-allocation"
    description = ("dataclasses.replace or dict literal inside a "
                   "'# hot-path' function; both allocate per event — "
                   "hoist, reuse, or build the record directly")
    include = (r"^repro/(sim|muppet)/",)

    def check(self, tree: ast.Module, relpath: str,
              source_lines: List[str]) -> List[Finding]:
        findings: List[Finding] = []
        #: Nested hot functions are walked from each enclosing hot def
        #: too; dedupe so one allocation yields one finding.
        seen: Set[Tuple[int, int]] = set()
        aliases = import_aliases(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_hot(node, source_lines):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Dict):
                    where = (sub.lineno, sub.col_offset)
                    if where in seen:
                        continue
                    seen.add(where)
                    findings.append(self.finding(
                        relpath, sub,
                        "dict literal allocates on every event in a "
                        "# hot-path function; hoist it to setup code or "
                        "reuse a preallocated mapping"))
                elif isinstance(sub, ast.Call):
                    name = canonical_name(sub.func, aliases)
                    if name != "dataclasses.replace":
                        continue
                    where = (sub.lineno, sub.col_offset)
                    if where in seen:
                        continue
                    seen.add(where)
                    findings.append(self.finding(
                        relpath, sub,
                        "dataclasses.replace re-runs the constructor per "
                        "event in a # hot-path function; build the new "
                        "record directly (e.g. tuple.__new__ stamping)"))
        return findings
