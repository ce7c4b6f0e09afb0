"""The ``golden_features`` campaign, every row in tier-1: the one compiled
per-event path reproduces what the exact stepper recorded (see
:mod:`repro.campaign.golden`)."""

from pathlib import Path

import pytest

from repro.campaign.artifact import build_payload, compare_artifacts, load_artifact
from repro.campaign.grid import expand_grid
from repro.campaign.specs import get_spec
from repro.campaign.workers import execute_cell

SPEC = get_spec("golden_features")
COMMITTED = load_artifact(SPEC.committed_path(Path(__file__).parents[2]))


@pytest.mark.parametrize("cell", expand_grid(SPEC.name, SPEC.grid),
                         ids=lambda cell: cell.params["row"])
def test_single_path_reproduces_exact_engine_row(cell):
    row = execute_cell(SPEC.scenario, SPEC.fixed, cell)
    fresh = build_payload(SPEC, [row])
    assert compare_artifacts(COMMITTED, fresh, ()) == [], row.get("error")
