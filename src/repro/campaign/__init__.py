"""Experiment campaigns: declarative parameter sweeps with committed
artifacts (ROADMAP item 5).

A campaign names a parameter grid, a per-cell scenario, and an artifact
contract; the :class:`~repro.campaign.runner.Runner` expands the grid,
fans cells out across local worker processes with hash-derived per-cell
seeds, resumes from partial artifacts, and collects one canonical JSON
file plus a rendered markdown table per campaign. See
``python -m repro campaign list`` for the shipped campaigns.
"""

from repro.campaign.artifact import (
    compare_artifacts,
    load_artifact,
    render_markdown,
    write_artifact,
)
from repro.campaign.grid import Cell, cell_id, cell_seed, expand_grid
from repro.campaign.runner import Runner, RunResult
from repro.campaign.spec import CampaignSpec, resolve_ref
from repro.campaign.specs import SPECS, get_spec

__all__ = [
    "CampaignSpec",
    "Cell",
    "RunResult",
    "Runner",
    "SPECS",
    "cell_id",
    "cell_seed",
    "compare_artifacts",
    "expand_grid",
    "get_spec",
    "load_artifact",
    "render_markdown",
    "resolve_ref",
    "write_artifact",
]
