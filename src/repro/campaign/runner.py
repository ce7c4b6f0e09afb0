"""The campaign Runner: expand, fan out, resume, collect, verify.

Determinism contract: two runs of the same spec — regardless of worker
count, completion order, or which cells were resumed from a partial
artifact — produce byte-identical artifacts. The pieces that make that
hold:

* cell identity and RNG seed derive from the cell's parameters alone
  (:mod:`repro.campaign.grid`), never from run order or wall clock;
* results are collected with ``Pool.map`` over the expanded grid order,
  so the artifact row order is the grid order even when cells complete
  out of order;
* the artifact wire form is canonical JSON with no timestamps.

Wall-clock metrics (the perf campaign) are machine-dependent by nature;
specs declare them ``volatile_metrics`` and ``campaign check`` skips
them.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.campaign import artifact as art
from repro.campaign.grid import Cell, expand_grid
from repro.campaign.spec import CampaignSpec, SummarizeFn, VerifyFn, resolve_ref
from repro.campaign.workers import execute_cell, pool_entry
from repro.errors import ConfigurationError


@dataclass
class RunResult:
    """Everything a run produced, for the CLI and the tests."""

    payload: art.Payload
    rows: List[art.Row]
    ran: int
    resumed: int
    failed: int
    verify_failures: List[str] = field(default_factory=list)


class Runner:
    """Expands a spec's grid and runs it across local worker processes.

    Args:
        spec: The campaign to run.
        workers: Local worker processes; ``1`` runs inline (no pool),
            which must — and does — produce the same bytes.
        resume: Reuse ``status == "ok"`` rows from ``resume_from`` (an
            existing artifact of the same spec) instead of re-running
            their cells; failed or missing cells run again.
    """

    def __init__(self, spec: CampaignSpec, workers: int = 1) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.spec = spec
        self.workers = workers

    def run(
        self,
        smoke: bool = False,
        resume_from: Optional[art.Payload] = None,
    ) -> RunResult:
        """Run the (full or smoke) grid and build the artifact payload."""
        spec = self.spec
        cells = expand_grid(spec.name, spec.grid_for(smoke), spec.seed)
        carried: Dict[str, art.Row] = {}
        if resume_from is not None:
            if resume_from.get("spec_hash") != art.spec_hash(spec):
                raise ConfigurationError(
                    "cannot resume: the partial artifact was produced by "
                    "a different spec (hash mismatch)"
                )
            carried = {
                row["cell"]: row
                for row in resume_from["cells"]
                if row["status"] == art.STATUS_OK
            }
        pending = [cell for cell in cells if cell.cell not in carried]
        fresh = {row["cell"]: row for row in self._execute(pending)}
        rows = [fresh.get(cell.cell) or carried[cell.cell] for cell in cells]
        payload = art.build_payload(spec, rows)
        _, failed = art.split_errors(rows)
        return RunResult(
            payload=payload,
            rows=rows,
            ran=len(pending),
            resumed=len(cells) - len(pending),
            failed=len(failed),
            verify_failures=verify_rows(spec, rows),
        )

    def _execute(self, pending: List[Cell]) -> List[art.Row]:
        spec = self.spec
        if self.workers == 1 or len(pending) <= 1:
            return [execute_cell(spec.scenario, spec.fixed, cell) for cell in pending]
        # Spawned (not forked) workers: each imports the scenario module
        # fresh, so results cannot depend on parent-process state.
        context = multiprocessing.get_context("spawn")
        jobs = [(spec.scenario, spec.fixed, cell) for cell in pending]
        with context.Pool(min(self.workers, len(pending))) as pool:
            return pool.map(pool_entry, jobs)


def verify_rows(spec: CampaignSpec, rows: List[art.Row]) -> List[str]:
    """Failed cells fail verify; the spec's assertion hook judges the
    rows only when every cell ran, so a hook may index any cell of the
    grid it was given without asking whether it is there."""
    failures = [
        f"cell {row['cell']} {row['params']!r} failed: {row.get('error')}"
        for row in rows
        if row["status"] != art.STATUS_OK
    ]
    if failures or spec.verify is None:
        return failures
    verify: VerifyFn = resolve_ref(spec.verify)
    return verify(rows)


def summarize_rows(spec: CampaignSpec, rows: List[art.Row]) -> List[str]:
    """Run the spec's markdown-summary hook (empty when absent)."""
    if spec.summarize is None:
        return []
    summarize: SummarizeFn = resolve_ref(spec.summarize)
    return summarize(rows)


def render_artifact(spec: CampaignSpec, json_path: Path, md_path: Path) -> None:
    """Render the markdown table from the JSON artifact on disk.

    ``run`` and ``render`` both come through here: the key-sorted
    payload is the table's one column order, whichever order the cells
    built their metric dicts in and whichever rows were resumed."""
    payload = art.load_artifact(json_path)
    summary = summarize_rows(spec, payload["cells"])
    md_path.parent.mkdir(parents=True, exist_ok=True)
    md_path.write_text(art.render_markdown(spec, payload, summary))


def write_outputs(
    spec: CampaignSpec,
    result: RunResult,
    json_path: Path,
    md_path: Optional[Path] = None,
) -> None:
    """Write the JSON artifact and (optionally) the markdown table."""
    art.write_artifact(json_path, result.payload)
    if md_path is not None:
        render_artifact(spec, json_path, md_path)
