"""MUP010: protocol-phase handlers must be schedule-deterministic.

The model checker (:mod:`repro.analysis.mc`) explores *delivery-order*
interleavings and assumes everything else about a protocol step is a
pure function of runtime state. Two things silently break that
assumption at the source line that introduces them:

* **Unordered iteration** — a phase handler that walks ``.values()`` /
  ``.keys()`` / ``.items()`` or a set decides per-machine side effects
  (sends, ring changes, slate moves) in dict/set order. Dict order is
  insertion order — i.e. schedule order — so two runs that the checker
  treats as one fingerprint can diverge. MUP003 only guards
  flush/report sinks; this rule extends the check to the protocol
  layer itself.
* **Wall-clock branches** — a handler that reads ``time.time()`` (or
  kin) branches on host time, which the controlled scheduler cannot
  replay. MUP001 flags wall-clock wherever engine code lives; this
  rule repeats the check for handlers so a suppressed MUP001 cannot
  hide one.

The scope follows the code: the migration and autoscaler protocols
(``repro.elastic``), the recovery broadcast and heartbeat sweep
(``repro.faults``), the overload monitors (``repro.shedding``), the
checkpoint epoch and replay glue (``repro/muppet/replay.py``), and the
runtime that sequences them (``repro.sim``).

A *protocol-phase handler* is named like one: ``_phase_*``,
``_handle_*``, ``on_*``, or any function whose name mentions a
protocol step (snapshot/delta/cutover/ack/migration/recovery/
checkpoint/epoch/barrier/rebalance/heartbeat/declare/failed/crash/
replay). Iterating a dict whose order is deterministic by construction
is fine — say so with ``# noqa: MUP010 -- reason``.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional

from repro.analysis.lint import Finding, LintRule, register_rule
from repro.analysis.rules.base import canonical_name, import_aliases
from repro.analysis.rules.determinism import _WALL_CLOCK

#: Function names that implement (or schedule) a protocol phase.
_PHASE_NAME = re.compile(
    r"(^_phase_|^_handle_|^on_|"
    r"snapshot|delta|cutover|ack\b|_ack|migrat|recover|checkpoint|"
    r"epoch|barrier|rebalanc|heartbeat|declare|failed|crash|replay)")


@register_rule
class ProtocolPhaseDeterminismRule(LintRule):
    """MUP010: unordered iteration / wall clock in protocol handlers."""

    code = "MUP010"
    name = "protocol-phase-determinism"
    description = ("protocol-phase handlers in repro.sim/elastic/faults/"
                   "shedding and muppet/replay.py must not iterate "
                   "unordered dicts/sets or branch on wall clock; the "
                   "model checker replays them as pure functions of "
                   "runtime state")
    include = (r"^repro/(elastic|sim|faults|shedding)/",
               r"^repro/muppet/replay\.py$")

    def check(self, tree: ast.Module, relpath: str,
              source_lines: List[str]) -> List[Finding]:
        aliases = import_aliases(tree)
        findings: List[Finding] = []
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _PHASE_NAME.search(func.name):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)) and node is not func:
                    # Nested defs get their own name check.
                    continue
                iters: List[ast.expr] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in node.generators)
                for it in iters:
                    what = _unordered(it)
                    if what is not None:
                        findings.append(self.finding(
                            relpath, it,
                            f"iteration over {what} in protocol-phase "
                            f"handler {func.name}(): order is schedule-"
                            "dependent; iterate sorted(...) or add "
                            "'# noqa: MUP010 -- reason' if order is "
                            "provably deterministic"))
                if isinstance(node, (ast.Attribute, ast.Name)):
                    name = canonical_name(node, aliases)
                    if name in _WALL_CLOCK:
                        findings.append(self.finding(
                            relpath, node,
                            f"wall-clock {_WALL_CLOCK[name]} in protocol-"
                            f"phase handler {func.name}(): the model "
                            "checker cannot replay host time; use the "
                            "simulated clock"))
        return _dedupe(findings)


def _unordered(node: ast.expr) -> Optional[str]:
    """Name the unordered iterable, or ``None`` if order is defined."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id == "set":
            return "set(...)"
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "values", "keys", "items"):
            return f".{node.func.attr}()"
    return None


def _dedupe(findings: List[Finding]) -> List[Finding]:
    """One finding per (line, col): nested attribute chains and nested
    phase-named functions would otherwise double-report."""
    seen = set()
    unique: List[Finding] = []
    for finding in findings:
        key = (finding.line, finding.col)
        if key not in seen:
            seen.add(key)
            unique.append(finding)
    return unique
