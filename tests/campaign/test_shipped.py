"""Every shipped campaign against its committed artifact.

Parametrised over ``SPECS``, so a campaign is covered by being
registered: its artifact exists, was produced by the shipped spec,
satisfies the spec's claims, and renders to the committed markdown. The
E-row campaigns also re-run the first cell of their (smoke) grid here;
the four older ones are heavier and are re-run by CI's ``campaign`` job
and by ``tests/elastic`` and ``tests/sim/test_effectively_once.py``
(``perf_baseline``'s tolerances are judged in ``test_perf.py``).
"""

from pathlib import Path

import pytest

from repro.campaign import artifact as art
from repro.campaign.grid import expand_grid
from repro.campaign.runner import render_artifact, verify_rows
from repro.campaign.specs import SPECS
from repro.campaign.workers import execute_cell

ROOT = Path(__file__).resolve().parents[2]
RERUN_BY_CI_ONLY = {"perf_baseline", "capacity", "delivery_matrix", "elasticity"}


@pytest.fixture(params=sorted(SPECS))
def spec(request, monkeypatch):
    # perf_baseline's verify hook reads BENCH_PERF.json under the cwd.
    monkeypatch.chdir(ROOT)
    return SPECS[request.param]


def test_committed_artifact_is_the_shipped_specs(spec):
    payload = art.load_artifact(spec.committed_path(ROOT))
    assert payload["spec_hash"] == art.spec_hash(spec)
    committed = [row["cell"] for row in payload["cells"]]
    assert committed == [cell.cell for cell in expand_grid(spec.name, spec.grid)]


def test_committed_rows_satisfy_the_claims(spec):
    payload = art.load_artifact(spec.committed_path(ROOT))
    assert verify_rows(spec, payload["cells"]) == []


def test_committed_markdown_is_a_fresh_render(spec, tmp_path):
    rendered = tmp_path / f"{spec.name}.md"
    render_artifact(spec, spec.committed_path(ROOT), rendered)
    assert rendered.read_text() == spec.markdown_path(ROOT).read_text()


@pytest.mark.parametrize("name", sorted(set(SPECS) - RERUN_BY_CI_ONLY))
def test_first_cell_reruns_to_the_committed_row(name):
    spec = SPECS[name]
    cell = expand_grid(spec.name, spec.grid_for(smoke=True), spec.seed)[0]
    fresh = execute_cell(spec.scenario, spec.fixed, cell)
    assert fresh["status"] == art.STATUS_OK, fresh.get("error")
    committed = art.load_artifact(spec.committed_path(ROOT))
    assert not art.compare_artifacts(
        committed, art.build_payload(spec, [fresh]), spec.volatile_metrics
    )
