"""MUP004: slate writes must ride the flush path.

Effectively-once delivery persists each slate's dedup watermarks inside
the same kv blob as its fields (``WATERMARK_FIELD``), encoded once per
flush — that atomicity is what makes replayed-event dedup sound after a
crash. A direct ``KVStore.write``/``write_batch``/``put_many``/``apply``
from engine code bypasses :class:`repro.slates.manager.SlateManager` and can
persist fields without their watermarks (or vice versa), silently
breaking exactness. All slate persistence must go through the manager's
flush path; the kv package itself and the manager are the only writers.
"""

from __future__ import annotations

import ast
import re
from typing import List

from repro.analysis.lint import Finding, LintRule, register_rule
from repro.analysis.rules.base import dotted_name

#: Mutating kv-store entry points.
_WRITE_METHODS = ("write", "write_batch", "put_many", "put", "apply")

#: Receiver names that denote a kv store/node (as opposed to a file
#: handle or buffer, whose ``.write`` is not a kv write).
_STORE_RECEIVER = re.compile(r"(^|[._])(store|kv\w*|node)s?$", re.IGNORECASE)


@register_rule
class SlateWriteBypassRule(LintRule):
    """Flag kv-store writes outside the slate-manager flush path."""

    code = "MUP004"
    name = "slate-write-bypass"
    description = ("KVStore write/write_batch/put_many/apply outside "
                   "slates/manager.py; slate persistence must go through "
                   "the flush path so watermarks stay atomic with fields")
    include = (r"^repro/",)
    # The E8/E10/E19 cells measure the store itself: they write raw
    # cells to a bare node or cluster with no slate involved.  Every
    # other campaign module drives the engines and stays covered.
    exclude = (r"^repro/slates/manager\.py$", r"^repro/kvstore/",
               r"^repro/analysis/",
               r"^repro/campaign/(e8_ssd|e10_ttl|e19_consistency)\.py$")

    def check(self, tree: ast.Module, relpath: str,
              source_lines: List[str]) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in _WRITE_METHODS:
                continue
            receiver = dotted_name(node.func.value)
            if receiver is None or not _STORE_RECEIVER.search(receiver):
                continue
            findings.append(self.finding(
                relpath, node,
                f"direct kv write {receiver}.{node.func.attr}(...) "
                "bypasses the slate flush path; use SlateManager so "
                "dedup watermarks persist atomically with the fields"))
        return findings
