"""Stateless DFS schedule exploration with sleep-set DPOR.

The explorer is CHESS-style stateless: it never snapshots the engine.
Each schedule is a fresh :class:`~repro.sim.SimRuntime` driven through
the :class:`~repro.sim.des.SchedulerHook` seam by an
:class:`~repro.analysis.mc.controlled.McChooser` that replays a recorded
choice prefix and then picks canonically. After each run the explorer
extends its decision-tree *path* with the new decision points, then
backtracks to the deepest node holding an untried candidate and
branches there.

Reduction is layered:

* **Sleep sets** (the DPOR part): when branching from choice ``a`` to
  sibling ``b``, every transition already fully explored at that node —
  plus whatever was asleep on arrival — goes to sleep in ``b``'s
  subtree, *minus* transitions dependent on ``b`` itself. A run forced
  through a sleeping transition is abandoned: some earlier sibling
  already explored an equivalent continuation.
* **State fingerprints**: a decision point whose semantic fingerprint
  was already visited with a subset sleep set is redundant regardless
  of how it was reached.

Turning both off (``dpor=False``) yields the naive enumerate-everything
DFS — kept runnable because the reported *reduction factor* (naive
schedules / DPOR schedules on the same exhausted model) is the honesty
check on the whole apparatus.

Budgets make partial exploration explicit: ``max_schedules`` bounds the
run count and ``max_decisions`` the branch depth; a budget hit clears
``exhausted`` on the result, and the CLI reports the state space as
*bounded-explored* rather than verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.mc.controlled import (McChooser, PruneRun, independent)
from repro.analysis.mc.fingerprint import state_fingerprint
from repro.analysis.mc.models import McModel, McScenario
from repro.analysis.mc.properties import (PropertyViolation,
                                          check_terminal_state)
from repro.faults.lattice import describe_schedule

#: Retention cap on the counterexamples one exploration records.
MAX_COUNTEREXAMPLES = 10


@dataclass
class ExplorationStats:
    """Counters for one scenario (or aggregated over a model)."""

    schedules_run: int = 0
    schedules_complete: int = 0
    pruned_sleep: int = 0
    pruned_fingerprint: int = 0
    pruned_depth: int = 0
    decision_points: int = 0
    transitions: int = 0
    distinct_fingerprints: int = 0
    fingerprint_hits: int = 0
    max_depth: int = 0
    violations: int = 0
    exhausted: bool = True

    def merge(self, other: "ExplorationStats") -> None:
        self.schedules_run += other.schedules_run
        self.schedules_complete += other.schedules_complete
        self.pruned_sleep += other.pruned_sleep
        self.pruned_fingerprint += other.pruned_fingerprint
        self.pruned_depth += other.pruned_depth
        self.decision_points += other.decision_points
        self.transitions += other.transitions
        self.distinct_fingerprints += other.distinct_fingerprints
        self.fingerprint_hits += other.fingerprint_hits
        self.max_depth = max(self.max_depth, other.max_depth)
        self.violations += other.violations
        self.exhausted = self.exhausted and other.exhausted


@dataclass
class Counterexample:
    """One violating schedule: everything needed to replay it.

    Attributes:
        model: Model name.
        scenario: Human label of the lattice point.
        scenario_index: Index into ``model.scenarios()``.
        decisions: The full decision trail — per decision point, the
            co-enabled labels and the chosen one (strict replay checks
            both).
        violations: The terminal-state properties that failed.
        minimized: Whether :mod:`repro.analysis.mc.minimize` ran.
        pinned: Length of the load-bearing decision prefix (the part
            that actually forces the bug); the rest of ``decisions`` is
            the canonical continuation, kept for strict replay. ``None``
            until minimization runs.
    """

    model: str
    scenario: str
    scenario_index: int
    decisions: List[Tuple[List[str], str]]
    violations: List[PropertyViolation]
    minimized: bool = False
    pinned: Optional[int] = None


@dataclass
class ScenarioResult:
    """Exploration outcome of one lattice point."""

    scenario: str
    scenario_index: int
    stats: ExplorationStats
    counterexamples: List[Counterexample] = field(default_factory=list)


@dataclass
class ModelResult:
    """Exploration outcome of one model across its fault lattice."""

    model: str
    dpor: bool
    scenarios: List[ScenarioResult]
    stats: ExplorationStats

    @property
    def counterexamples(self) -> List[Counterexample]:
        out: List[Counterexample] = []
        for scenario in self.scenarios:
            out.extend(scenario.counterexamples)
        return out

    @property
    def clean(self) -> bool:
        return not self.counterexamples


class _Node:
    """One decision point on the current DFS path."""

    __slots__ = ("labels", "candidates", "footprints", "arrival_sleep",
                 "explored", "current")

    def __init__(self, labels: List[str], candidates: List[str],
                 footprints: Dict[str, str],
                 arrival_sleep: FrozenSet[str]) -> None:
        self.labels = labels
        self.candidates = candidates
        self.footprints = footprints
        self.arrival_sleep = arrival_sleep
        #: Choices whose subtrees are fully explored.
        self.explored: List[str] = []
        #: The choice whose subtree the path currently descends into.
        self.current: Optional[str] = None

    def untried(self) -> List[str]:
        done: Set[str] = set(self.explored)
        if self.current is not None:
            done.add(self.current)
        return [label for label in self.candidates if label not in done]


class Explorer:
    """Exhaust (or budget-explore) one scenario's schedule space.

    Args:
        scenario: The model + fault-schedule point to explore.
        dpor: Enable sleep sets + fingerprint pruning. ``False`` is the
            naive baseline used to measure the reduction factor.
        max_schedules: Run-count budget (None = unbounded).
        max_decisions: Branch-depth budget per run.
        stop_on_violation: Abandon the scenario after the first
            counterexample (exploration then reports not-exhausted).
    """

    def __init__(self, scenario: McScenario, dpor: bool = True,
                 max_schedules: Optional[int] = 10_000,
                 max_decisions: int = 10_000,
                 stop_on_violation: bool = False) -> None:
        self.scenario = scenario
        self.dpor = dpor
        self.max_schedules = max_schedules
        self.max_decisions = max_decisions
        self.stop_on_violation = stop_on_violation
        self.stats = ExplorationStats()
        self.counterexamples: List[Counterexample] = []
        self._visited: Dict[str, List[FrozenSet[str]]] = {}
        self._path: List[_Node] = []
        self._reference: Optional[Dict[str, float]] = None
        if scenario.model.exact:
            self._reference = scenario.model.reference_slates()

    # -- public ------------------------------------------------------------
    def explore(self) -> ScenarioResult:
        """Run the DFS to exhaustion or budget."""
        self._run_branch(prefix=[], branch_sleep=frozenset())
        while True:
            if self.stop_on_violation and self.counterexamples:
                self.stats.exhausted = False
                break
            if (self.max_schedules is not None
                    and self.stats.schedules_run >= self.max_schedules):
                if self._deepest_branchable() is not None:
                    self.stats.exhausted = False
                break
            depth = self._deepest_branchable()
            if depth is None:
                break
            node = self._path[depth]
            if node.current is not None:
                node.explored.append(node.current)
            choice = node.untried()[0]
            node.current = choice
            del self._path[depth + 1:]
            prefix = [n.current for n in self._path[:depth]]
            prefix.append(choice)
            branch_sleep = self._branch_sleep(node, choice)
            self._run_branch([str(p) for p in prefix], branch_sleep)
        self.stats.violations = sum(
            len(ce.violations) for ce in self.counterexamples)
        self.stats.distinct_fingerprints = len(self._visited)
        return ScenarioResult(
            scenario=self.scenario.label,
            scenario_index=self.scenario.index,
            stats=self.stats,
            counterexamples=list(self.counterexamples))

    # -- internals ---------------------------------------------------------
    def _branch_sleep(self, node: _Node, choice: str) -> FrozenSet[str]:
        if not self.dpor:
            return frozenset()
        choice_fp = node.footprints.get(choice, "*")
        pool = set(node.arrival_sleep) | set(node.explored)
        return frozenset(
            label for label in pool
            if independent(node.footprints.get(label, "*"), choice_fp))

    def _run_branch(self, prefix: List[str],
                    branch_sleep: FrozenSet[str]) -> None:
        runtime = self.scenario.build()
        fingerprint_fn = ((lambda: state_fingerprint(runtime))
                          if self.dpor else None)
        chooser = McChooser(
            runtime, prefix=prefix, branch_sleep=branch_sleep,
            fingerprint_fn=fingerprint_fn,
            visited=self._visited if self.dpor else None,
            max_decisions=self.max_decisions)
        runtime.sim.hook = chooser
        outcome = "complete"
        try:
            runtime.run(self.scenario.model.horizon_s)
        except PruneRun as prune:
            outcome = prune.reason
        self.stats.schedules_run += 1
        self.stats.transitions += chooser.transitions
        self.stats.fingerprint_hits += chooser.fingerprint_hits
        depth = len(chooser.records)
        self.stats.max_depth = max(self.stats.max_depth, depth)
        if outcome == "complete":
            self.stats.schedules_complete += 1
        elif outcome in ("sleep", "sleep-forced"):
            self.stats.pruned_sleep += 1
        elif outcome == "fingerprint":
            self.stats.pruned_fingerprint += 1
        elif outcome == "depth-budget":
            self.stats.pruned_depth += 1
            self.stats.exhausted = False
        self._absorb(chooser, from_depth=len(prefix))
        if outcome == "complete":
            self._check_terminal(chooser, runtime)

    def _absorb(self, chooser: McChooser, from_depth: int) -> None:
        """Append the run's new decision points to the DFS path."""
        records = chooser.records
        if len(self._path) > from_depth:
            # Retracing an existing path must reproduce it exactly.
            del self._path[from_depth:]
        for record in records[from_depth:]:
            self.stats.decision_points += 1
            node = _Node(list(record.labels), list(record.candidates),
                         dict(record.footprints), record.sleep)
            node.current = record.chosen
            self._path.append(node)

    def _deepest_branchable(self) -> Optional[int]:
        for depth in range(len(self._path) - 1, -1, -1):
            if self._path[depth].untried():
                return depth
            # This node is exhausted; fold its current choice in so the
            # parent sees a fully-explored subtree.
            node = self._path[depth]
            if node.current is not None:
                node.explored.append(node.current)
                node.current = None
            del self._path[depth:]
        return None

    def _check_terminal(self, chooser: McChooser, runtime: Any) -> None:
        violations = check_terminal_state(
            self.scenario.model, runtime, reference=self._reference)
        if not violations:
            return
        if len(self.counterexamples) < MAX_COUNTEREXAMPLES:
            self.counterexamples.append(Counterexample(
                model=self.scenario.model.name,
                scenario=describe_schedule(self.scenario.schedule),
                scenario_index=self.scenario.index,
                decisions=[(list(r.labels), r.chosen)
                           for r in chooser.records],
                violations=violations))


def explore_model(model: McModel, dpor: bool = True,
                  max_schedules_per_scenario: Optional[int] = 10_000,
                  max_decisions: int = 10_000,
                  stop_on_violation: bool = False) -> ModelResult:
    """Explore every lattice point of one model."""
    results: List[ScenarioResult] = []
    total = ExplorationStats()
    for scenario in model.scenarios():
        explorer = Explorer(
            scenario, dpor=dpor,
            max_schedules=max_schedules_per_scenario,
            max_decisions=max_decisions,
            stop_on_violation=stop_on_violation)
        result = explorer.explore()
        results.append(result)
        total.merge(result.stats)
        if stop_on_violation and result.counterexamples:
            break
    return ModelResult(model=model.name, dpor=dpor,
                       scenarios=results, stats=total)


def replay_decisions(scenario: McScenario,
                     decisions: List[str],
                     strict: bool = True) -> Tuple[Any, McChooser]:
    """Re-execute one recorded schedule; returns (runtime, chooser).

    With ``strict`` the recorded prefix must cover every decision point
    the run encounters — any divergence raises
    :class:`~repro.analysis.mc.controlled.ReplayMismatch`.
    """
    runtime = scenario.build()
    chooser = McChooser(runtime, prefix=list(decisions), strict=strict)
    runtime.sim.hook = chooser
    runtime.run(scenario.model.horizon_s)
    return runtime, chooser
