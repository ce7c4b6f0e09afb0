"""``verify_perf``'s tolerances, on doctored copies of the committed rows.

The cells themselves re-run under CI's ``campaign`` job; what is tested
here is the judging: the wall ceiling against the committed
``BENCH_PERF.json``, the batching CPU floor and the tracing-off budget.
"""

import copy
from pathlib import Path

import pytest

from repro.campaign.artifact import build_payload, load_artifact, write_artifact
from repro.campaign.perf import PERF_BASELINE, verify_perf
from repro.cli import main

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def rows(monkeypatch):
    """A private copy of the committed rows, judged from the repo root."""
    monkeypatch.chdir(ROOT)
    committed = load_artifact(PERF_BASELINE.committed_path(ROOT))
    return copy.deepcopy(committed["cells"])


def doctor(rows, scenario, **metrics):
    (row,) = [row for row in rows if row["params"]["scenario"] == scenario]
    row["metrics"].update(metrics)
    return row


def test_committed_baseline_passes_against_itself(rows):
    assert verify_perf(rows) == []


@pytest.mark.parametrize(
    "scenario", ["e1_scaling", "e2_latency", "e9_flush", "obs_overhead"]
)
def test_wall_ceiling_is_25_percent_over_committed(rows, scenario):
    committed = doctor(rows, scenario)["metrics"]["wall_s"]
    doctor(rows, scenario, wall_s=round(committed * 1.2, 4))
    assert verify_perf(rows) == []
    doctor(rows, scenario, wall_s=round(committed * 1.3, 4))
    (failure,) = verify_perf(rows)
    assert failure.startswith(f"{scenario}: wall_s")


@pytest.mark.parametrize(
    "scenario, metric, value",
    [
        ("e1_scaling", "speedup_cpu", 0.79),
        ("obs_overhead", "tracing_off_overhead", 0.02),
        ("obs_overhead", "report_byte_identical", False),
        ("obs_overhead", "slates_byte_identical", False),
    ],
)
def test_a_broken_claim_is_named(rows, scenario, metric, value):
    doctor(rows, scenario, **{metric: value})
    (failure,) = verify_perf(rows)
    assert failure.startswith(f"{scenario}: ") and metric in failure


def test_values_just_inside_the_tolerances_pass(rows):
    doctor(rows, "e1_scaling", speedup_cpu=0.8)
    doctor(rows, "obs_overhead", tracing_off_overhead=0.0199)
    assert verify_perf(rows) == []


def test_a_row_without_a_committed_baseline_is_named(rows):
    doctor(rows, "e9_flush")["params"]["scenario"] = "e99_unrecorded"
    (failure,) = verify_perf(rows)
    assert failure.startswith("e99_unrecorded: no committed row")


def test_campaign_check_applies_the_tolerances(rows, tmp_path, capsys):
    """The ceiling runs where CI runs it: ``campaign check`` on a fresh
    artifact whose deterministic metrics all match."""
    fresh = tmp_path / "perf_baseline.json"
    write_artifact(fresh, build_payload(PERF_BASELINE, rows))
    assert main(["campaign", "check", "perf_baseline", "--fresh", str(tmp_path)]) == 0
    committed = doctor(rows, "e2_latency")["metrics"]["wall_s"]
    doctor(rows, "e2_latency", wall_s=round(committed * 1.3, 4))
    write_artifact(fresh, build_payload(PERF_BASELINE, rows))
    assert main(["campaign", "check", "perf_baseline", "--fresh", str(tmp_path)]) == 1
    assert "FAIL e2_latency: wall_s" in capsys.readouterr().out
