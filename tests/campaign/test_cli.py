"""``python -m repro campaign`` end to end, against the toy campaign."""

import json
from pathlib import Path

import pytest

import repro.campaign.specs as specs
from repro.cli import main
from tests.campaign.toy import toy_spec


@pytest.fixture
def toy_registered(monkeypatch, tmp_path):
    """Register the toy campaign and run from a scratch repo root."""
    monkeypatch.setitem(specs.SPECS, "toy", toy_spec())
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestList:
    def test_lists_shipped_campaigns(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "capacity: 24 cells (smoke: 6)\n" in out
        assert "delivery_matrix: 9 cells (smoke: 6)\n" in out
        # The tag CI reads to run self-timing campaigns one cell at a time.
        assert "perf_baseline: 4 cells [wall-clock]\n" in out
        assert "BENCH_PERF.json" in out


class TestRun:
    def test_scratch_run_writes_default_paths(self, toy_registered, capsys):
        assert main(["campaign", "run", "toy"]) == 0
        out = capsys.readouterr().out
        assert "4 cells (full grid), 4 ran, 0 resumed, 0 failed" in out
        scratch = toy_registered / "campaigns" / "scratch"
        assert (scratch / "toy.json").exists()
        assert (scratch / "toy.md").exists()

    def test_update_writes_committed_paths(self, toy_registered, capsys):
        assert main(["campaign", "run", "toy", "--update"]) == 0
        results = toy_registered / "campaigns" / "results"
        assert (results / "toy.json").exists()
        assert (results / "toy.md").exists()

    def test_update_rejects_out(self, toy_registered, capsys):
        code = main(["campaign", "run", "toy", "--update", "--out", "x"])
        assert code == 2
        assert "drop --out" in capsys.readouterr().err

    def test_unknown_campaign_exits_2(self, capsys):
        assert main(["campaign", "run", "nope"]) == 2
        assert "unknown campaign" in capsys.readouterr().err

    def test_verify_failure_exits_1(self, toy_registered, monkeypatch, capsys):
        brittle = toy_spec(scenario="tests.campaign.toy:brittle_cell")
        monkeypatch.setitem(specs.SPECS, "toy", brittle)
        assert main(["campaign", "run", "toy"]) == 1
        out = capsys.readouterr().out
        assert "VERIFY FAIL" in out

    def test_resume_skips_completed_cells(self, toy_registered, capsys):
        assert main(["campaign", "run", "toy", "--out", "fresh"]) == 0
        capsys.readouterr()
        assert main(["campaign", "run", "toy", "--out", "fresh", "--resume"]) == 0
        assert "0 ran, 4 resumed" in capsys.readouterr().out


class TestCheck:
    def run_and_check(self, *extra):
        assert main(["campaign", "run", "toy", "--update"]) == 0
        assert main(["campaign", "run", "toy", "--out", "fresh"]) == 0
        return main(["campaign", "check", "toy", "--fresh", "fresh", *extra])

    def test_identical_rerun_passes(self, toy_registered, capsys):
        assert self.run_and_check() == 0
        assert "4/4 committed cells re-ran byte-identically" in (
            capsys.readouterr().out
        )

    def test_missing_fresh_artifact_exits_2(self, toy_registered, capsys):
        assert main(["campaign", "run", "toy", "--update"]) == 0
        assert main(["campaign", "check", "toy", "--fresh", "fresh"]) == 2
        assert "no fresh artifact" in capsys.readouterr().out

    def test_metric_drift_fails(self, toy_registered, capsys):
        assert main(["campaign", "run", "toy", "--update"]) == 0
        assert main(["campaign", "run", "toy", "--out", "fresh"]) == 0
        fresh_path = Path("fresh") / "toy.json"
        payload = json.loads(fresh_path.read_text())
        payload["cells"][0]["metrics"]["sum"] += 1
        fresh_path.write_text(json.dumps(payload))
        assert main(["campaign", "check", "toy", "--fresh", "fresh"]) == 1
        assert "metrics differ" in capsys.readouterr().out


class TestRender:
    def test_rerenders_from_committed_artifact(self, toy_registered, capsys):
        assert main(["campaign", "run", "toy", "--update"]) == 0
        md_path = toy_registered / "campaigns" / "results" / "toy.md"
        md_path.unlink()
        assert main(["campaign", "render", "toy"]) == 0
        assert "## Summary" in md_path.read_text()

    @pytest.mark.parametrize("resume", [False, True])
    def test_run_and_render_write_the_same_markdown(
        self, toy_registered, capsys, resume
    ):
        """One column order, whether the rows are fresh (the cell's own
        key order), reloaded (key-sorted JSON) or a mix of both."""
        run = ["campaign", "run", "toy", "--update"]
        if resume:
            assert main(run + ["--smoke"]) == 0  # 1 of 4 cells to carry over
            run.append("--resume")
        assert main(run) == 0
        md_path = toy_registered / "campaigns" / "results" / "toy.md"
        written_by_run = md_path.read_text()
        assert "| seed_echo | sum |" in written_by_run
        assert main(["campaign", "render", "toy"]) == 0
        assert md_path.read_text() == written_by_run
