"""MUP008: canonical lock order in the threaded engine.

:class:`repro.muppet.local.LocalMuppet` synchronizes with four locks
(dispatch, the slate stripes, manager, timer). Deadlock freedom rests on
every thread acquiring nested locks in one global order. This rule computes,
per method, which locks the method acquires (transitively through
``self.`` calls within the module) and checks every nested acquisition
against the canonical order below. Acquiring a lower-ranked lock while
holding a higher-ranked one is a potential deadlock; nesting the same
rank is a self-deadlock (the locks are non-reentrant).

Canonical order (acquire top-to-bottom, document changes in DESIGN.md)::

    1. _dispatch_lock / _drained   (same underlying lock, as is every
       worker's ``cond``)
    2. slate stripes (via _slate_lock; one at a time)
    3. _manager_lock
    4. _timer_cond

The dynamic lock-order-graph check in :mod:`repro.analysis.races`
verifies the same property at runtime; this rule catches inversions at
review time, before a schedule ever exercises them.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.lint import Finding, LintRule, register_rule
from repro.analysis.rules.base import dotted_name

#: lock attribute -> rank. Aliases share a rank; nesting equal ranks is
#: flagged (non-reentrant self-deadlock), the slate rank included: two
#: keys may share a stripe, so a thread holds one slate lock at a time.
CANONICAL_LOCK_ORDER: Dict[str, int] = {
    "_dispatch_lock": 1,
    "_drained": 1,
    "<slate>": 2,
    "_manager_lock": 3,
    "_timer_cond": 4,
}

_ORDER_TEXT = "dispatch < slate < manager < timer"


def _lock_name(expr: ast.expr) -> Optional[str]:
    """Map a ``with`` context expression to a canonical lock name."""
    name = dotted_name(expr)
    if name is None:
        # ``with self._slate_lock(key):`` — a call producing a lock.
        if isinstance(expr, ast.Call):
            func = dotted_name(expr.func)
            if func is not None and func.endswith("_slate_lock"):
                return "<slate>"
        return None
    attr = name.split(".")[-1]
    if attr in CANONICAL_LOCK_ORDER:
        return attr
    if "slate_lock" in attr:
        return "<slate>"
    return None


@register_rule
class LockOrderRule(LintRule):
    """Check nested lock acquisitions against the canonical order."""

    code = "MUP008"
    name = "lock-order"
    description = ("nested lock acquisition in muppet/local.py violating "
                   f"the canonical order ({_ORDER_TEXT})")
    include = (r"^repro/muppet/local\.py$",)

    def check(self, tree: ast.Module, relpath: str,
              source_lines: List[str]) -> List[Finding]:
        methods = self._collect_methods(tree)
        summaries = self._lock_summaries(methods)
        findings: List[Finding] = []
        for name, func in methods.items():
            self._check_body(func.body, held=[], methods=methods,
                             summaries=summaries, relpath=relpath,
                             findings=findings)
        return findings

    # -- per-method lock summaries (single-module fixpoint) -----------------
    @staticmethod
    def _collect_methods(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
        methods: Dict[str, ast.FunctionDef] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods[item.name] = item
        return methods

    def _lock_summaries(
            self, methods: Dict[str, ast.FunctionDef]) -> Dict[str, Set[str]]:
        """Locks each method may acquire, transitively through
        ``self.<method>()`` calls within this module."""
        direct: Dict[str, Set[str]] = {}
        calls: Dict[str, Set[str]] = {}
        for name, func in methods.items():
            acquired: Set[str] = set()
            callees: Set[str] = set()
            for node in ast.walk(func):
                if isinstance(node, ast.With):
                    for item in node.items:
                        lock = _lock_name(item.context_expr)
                        if lock is not None:
                            acquired.add(lock)
                if isinstance(node, ast.Call):
                    callee = dotted_name(node.func)
                    if callee is not None and callee.startswith("self."):
                        method = callee.split(".", 1)[1]
                        if method in methods:
                            callees.add(method)
            direct[name] = acquired
            calls[name] = callees
        summaries = {name: set(locks) for name, locks in direct.items()}
        changed = True
        while changed:
            changed = False
            for name in summaries:
                for callee in calls[name]:
                    before = len(summaries[name])
                    summaries[name] |= summaries[callee]
                    if len(summaries[name]) != before:
                        changed = True
        return summaries

    # -- nested-with / call-under-lock checking ------------------------------
    def _check_body(self, body: List[ast.stmt], held: List[Tuple[str, int]],
                    methods: Dict[str, ast.FunctionDef],
                    summaries: Dict[str, Set[str]], relpath: str,
                    findings: List[Finding]) -> None:
        for stmt in body:
            if isinstance(stmt, ast.With):
                acquired: List[Tuple[str, int]] = []
                for item in stmt.items:
                    lock = _lock_name(item.context_expr)
                    if lock is None:
                        continue
                    self._check_acquisition(lock, item.context_expr, held,
                                            relpath, findings)
                    acquired.append((lock, stmt.lineno))
                self._check_body(stmt.body, held + acquired, methods,
                                 summaries, relpath, findings)
                continue
            if held:
                # Calls made while holding locks: check the callee's
                # transitive lock summary against what we hold.
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    callee = dotted_name(node.func)
                    if callee is None or not callee.startswith("self."):
                        continue
                    method = callee.split(".", 1)[1]
                    for lock in sorted(summaries.get(method, ())):
                        self._check_acquisition(
                            lock, node, held, relpath, findings,
                            via=f"call to self.{method}()")
            # Recurse into nested control flow.
            for child_body in _inner_bodies(stmt):
                self._check_body(child_body, held, methods, summaries,
                                 relpath, findings)

    def _check_acquisition(self, lock: str, node: ast.AST,
                           held: List[Tuple[str, int]], relpath: str,
                           findings: List[Finding],
                           via: Optional[str] = None) -> None:
        rank = CANONICAL_LOCK_ORDER[lock]
        for held_lock, held_line in held:
            held_rank = CANONICAL_LOCK_ORDER[held_lock]
            if held_rank >= rank:
                how = f" ({via})" if via else ""
                findings.append(self.finding(
                    relpath, node,
                    f"acquires {lock} (rank {rank}){how} while holding "
                    f"{held_lock} (rank {held_rank}, line {held_line}); "
                    f"canonical order is {_ORDER_TEXT}"))


def _inner_bodies(stmt: ast.stmt) -> List[List[ast.stmt]]:
    bodies: List[List[ast.stmt]] = []
    for field_name in ("body", "orelse", "finalbody"):
        value = getattr(stmt, field_name, None)
        if isinstance(value, list) and value and isinstance(
                value[0], ast.stmt):
            bodies.append(value)
    handlers = getattr(stmt, "handlers", None)
    if handlers:
        bodies.extend(h.body for h in handlers)
    return bodies
