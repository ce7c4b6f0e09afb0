"""MUP009: per-event allocation and JSON in ``# hot-path`` functions.

The compiled per-event path (E23; ``bench``'s ``sim_chain`` measures
it) lives or dies on per-event allocation discipline: at ~210k steps
per E1 run, one extra dict literal or a ``dataclasses.replace`` (which
re-runs ``__init__`` and validation) per event is a measurable
wall-clock regression. Functions on the per-event path are marked with
a ``# hot-path`` comment on their signature; inside them this rule flags

* ``dataclasses.replace(...)`` calls — replace re-allocates through the
  constructor; hot code should build the new record directly (the Event
  NamedTuple stamps via ``tuple.__new__``),
* dict literals (``{...}``, including ``{}``) — each one is a fresh
  allocation per event; hoist it to setup code, reuse a preallocated
  mapping, or keep the state in slots/locals, and
* ``json.dumps`` / ``json.loads`` calls — serializing per event to learn
  a size is what ``_json_size_fast`` and ``charged_size`` compute instead.

Cold code is untouched: the rule only looks inside marked functions,
and a justified allocation suppresses with
``# noqa: MUP009 -- reason`` like every other MUP rule.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set, Tuple

from repro.analysis.lint import Finding, LintRule, register_rule
from repro.analysis.rules.base import canonical_name, import_aliases

#: The marker engines put on per-event functions' signature lines.
_MARKER = "# hot-path"

_DICT_MESSAGE = ("dict literal allocates on every event in a # hot-path "
                 "function; hoist it to setup code or reuse a preallocated "
                 "mapping")
_JSON_MESSAGE = ("the JSON codec runs per event in a # hot-path function; "
                 "compute the size (see _json_size_fast, charged_size) or "
                 "move it off the per-event path")
#: Flagged calls (canonical names) and what each finding says.
_CALL_MESSAGES = {
    "dataclasses.replace": (
        "dataclasses.replace re-runs the constructor per event in a "
        "# hot-path function; build the new record directly (e.g. "
        "tuple.__new__ stamping)"),
    "json.dumps": _JSON_MESSAGE, "json.loads": _JSON_MESSAGE}


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
    description = ("dataclasses.replace, dict literal or json.dumps/loads "
                   "inside a '# hot-path' function; each costs per event — "
                   "hoist, reuse, build the record directly or do arithmetic")
    include = (r"^repro/(sim|muppet|core|kvstore)/",)

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
                    message: Optional[str] = _DICT_MESSAGE
                elif isinstance(sub, ast.Call):
                    message = _CALL_MESSAGES.get(
                        canonical_name(sub.func, aliases) or "")
                else:
                    continue
                where = (sub.lineno, sub.col_offset)
                if message is None or where in seen:
                    continue
                seen.add(where)
                findings.append(self.finding(relpath, sub, message))
        return findings
