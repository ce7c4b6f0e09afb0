"""Determinism rules: wall-clock, unseeded RNG, unordered iteration.

The DES simulator's byte-determinism gate (CI) only says *that* two runs
diverged. These rules catch the three ways nondeterminism actually
enters this codebase, at the line that introduces it:

* **MUP001** — wall-clock reads (``time.time``/``time.monotonic``/
  ``time.sleep``/``datetime.now``) in code that runs under the virtual
  clock. Simulated components take a ``clock`` callable bound to
  :class:`repro.sim.clock.VirtualClock`; a direct wall-clock read makes
  the run irreproducible. The threaded ``repro.muppet`` engines *are*
  wall-clock by design, so there every site must carry an explicit
  ``# noqa: MUP001 -- reason`` — the allowlist is in the source, not in
  the rule.
* **MUP002** — module-level :mod:`random` use (or ``random.Random()``
  with no seed). All randomness must flow from a seeded
  ``random.Random(seed)`` instance so a run is a pure function of its
  seeds.
* **MUP003** — iteration over ``set(...)``/``.values()``/``.keys()``/
  ``.items()`` inside ordering-sensitive sinks (functions whose name
  marks them as flush/report/snapshot/dump paths) without a ``sorted``
  wrapper, directly or through a local name assigned one of them. Set
  order is salted per process (or, for objects, address order); dict
  order is insertion order, which in threaded code is arrival order —
  both leak schedule nondeterminism into reports and flush sequences.
"""

from __future__ import annotations

import ast
from typing import List, Optional

from repro.analysis.lint import Finding, LintRule, register_rule
from repro.analysis.rules.base import canonical_name, import_aliases

_WALL_CLOCK = {
    "time.time": "time.time()",
    "time.time_ns": "time.time_ns()",
    "time.monotonic": "time.monotonic()",
    "time.monotonic_ns": "time.monotonic_ns()",
    "time.perf_counter": "time.perf_counter()",
    "time.perf_counter_ns": "time.perf_counter_ns()",
    "time.sleep": "time.sleep()",
    "datetime.now": "datetime.now()",
    "datetime.utcnow": "datetime.utcnow()",
    "datetime.datetime.now": "datetime.now()",
    "datetime.datetime.utcnow": "datetime.utcnow()",
}


@register_rule
class WallClockRule(LintRule):
    """MUP001: wall-clock access in virtual-clock code."""

    code = "MUP001"
    name = "wall-clock"
    description = ("time.time/time.monotonic/time.sleep/datetime.now in "
                   "engine code; simulated components must use the clock "
                   "seam, threaded sites need '# noqa: MUP001 -- reason'")
    include = (r"^repro/(sim|core|slates|kvstore|cluster|muppet|faults|"
               r"elastic|shedding|baselines|obs)/",)

    def check(self, tree: ast.Module, relpath: str,
              source_lines: List[str]) -> List[Finding]:
        aliases = import_aliases(tree)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            # Both calls (time.time()) and bare references (passing
            # time.monotonic as a clock callable) inject wall time.
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            name = canonical_name(node, aliases)
            if name in _WALL_CLOCK:
                findings.append(self.finding(
                    relpath, node,
                    f"wall-clock {_WALL_CLOCK[name]} in engine code: use "
                    "the clock/config seam, or add '# noqa: MUP001 -- "
                    "reason' for legitimately wall-clock (threaded) "
                    "sites"))
        return _dedupe_by_position(findings)


def _dedupe_by_position(findings: List[Finding]) -> List[Finding]:
    """Drop duplicate findings at one (line, col) — nested attribute
    chains like ``datetime.datetime.now`` match at two depths."""
    seen = set()
    unique: List[Finding] = []
    for finding in findings:
        key = (finding.line, finding.col, finding.code)
        if key not in seen:
            seen.add(key)
            unique.append(finding)
    return unique


#: random-module functions that read/advance the hidden global RNG.
_GLOBAL_RANDOM = {
    "random.random", "random.randint", "random.randrange", "random.choice",
    "random.choices", "random.shuffle", "random.sample", "random.uniform",
    "random.gauss", "random.normalvariate", "random.expovariate",
    "random.betavariate", "random.paretovariate", "random.vonmisesvariate",
    "random.triangular", "random.seed", "random.getrandbits",
    "random.randbytes", "numpy.random.rand", "numpy.random.randn",
    "numpy.random.randint", "numpy.random.random", "numpy.random.choice",
    "numpy.random.shuffle", "numpy.random.seed",
}


@register_rule
class UnseededRandomRule(LintRule):
    """MUP002: global/unseeded RNG use anywhere in ``src/repro``."""

    code = "MUP002"
    name = "unseeded-random"
    description = ("module-level random.* calls or random.Random() with "
                   "no seed; randomness must come from an explicitly "
                   "seeded random.Random(seed)")
    include = (r"^repro/",)

    def check(self, tree: ast.Module, relpath: str,
              source_lines: List[str]) -> List[Finding]:
        aliases = import_aliases(tree)
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = canonical_name(node.func, aliases)
            if name in _GLOBAL_RANDOM:
                findings.append(self.finding(
                    relpath, node,
                    f"{name}() uses the hidden global RNG; construct a "
                    "seeded random.Random(seed) and thread it through"))
            elif name in ("random.Random", "numpy.random.default_rng"):
                if not node.args and not node.keywords:
                    findings.append(self.finding(
                        relpath, node,
                        f"{name}() without a seed is nondeterministic; "
                        "pass an explicit seed"))
        return findings


#: Function names that are ordering-sensitive sinks: what they iterate
#: becomes flush order, report bytes, or user-visible dumps.
_SINK_NAME = (r"(flush|report|snapshot|status|dump|summary|lines|"
              r"resident|read_slates|merged?|to_json|as_dict)")


@register_rule
class UnorderedIterationRule(LintRule):
    """MUP003: unsorted set/dict-view iteration in ordered sinks."""

    code = "MUP003"
    name = "unordered-iteration"
    description = ("iterating set()/.values()/.keys()/.items() inside "
                   "flush/report/snapshot/dump functions without "
                   "sorted(); schedule-dependent order leaks into "
                   "ordered output")
    include = (r"^repro/",)
    exclude = (r"^repro/analysis/",)

    def check(self, tree: ast.Module, relpath: str,
              source_lines: List[str]) -> List[Finding]:
        import re as _re

        findings: List[Finding] = []
        sink_re = _re.compile(_SINK_NAME)
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not sink_re.search(func.name):
                continue
            for node in ast.walk(func):
                iters: List[ast.expr] = []
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    iters.append(node.iter)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)):
                    iters.extend(gen.iter for gen in node.generators)
                for it in iters:
                    reason = self._unordered(it)
                    if reason is None and isinstance(it, ast.Name):
                        value = self._latest_assignment(func, it)
                        if value is not None:
                            reason = self._unordered(value)
                    if reason is not None:
                        findings.append(self.finding(
                            relpath, it,
                            f"iteration over {reason} in ordering-"
                            f"sensitive {func.name}(): wrap in sorted() "
                            "so output order is schedule-independent"))
        return findings

    @staticmethod
    def _latest_assignment(func: ast.AST, name: ast.Name
                           ) -> Optional[ast.expr]:
        """What ``name`` was last assigned in ``func`` above its use."""
        assigned = [node for node in ast.walk(func)
                    if isinstance(node, ast.Assign)
                    and node.lineno < name.lineno
                    and any(isinstance(target, ast.Name)
                            and target.id == name.id
                            for target in node.targets)]
        return (max(assigned, key=lambda node: node.lineno).value
                if assigned else None)

    @classmethod
    def _unordered(cls, node: ast.expr) -> Optional[str]:
        """Name the unordered collection, or ``None`` if ordered."""
        if isinstance(node, ast.IfExp):
            return cls._unordered(node.body) or cls._unordered(node.orelse)
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set"
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "set":
                return "set(...)"
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                    "values", "keys", "items"):
                return f".{node.func.attr}()"
        return None
