"""Benchmark-suite plumbing: experiment tables in the terminal summary.

Each bench module reproduces one experiment from DESIGN.md's index
(F1/F2, E1–E13). Timing goes through pytest-benchmark as usual; the
*scientific* output — the paper-versus-measured tables — is recorded via
the ``experiment`` fixture and printed in the terminal summary (so it
lands in ``bench_output.txt``) as well as written under a results
directory (``benchmarks/results/`` by default; override with
``--results-dir`` so CI can collect artifacts from a scratch path).
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Tuple

import pytest

_DEFAULT_RESULTS_DIR = Path(__file__).parent / "results"
_results_dir = _DEFAULT_RESULTS_DIR
_TABLES: List[Tuple[str, str]] = []


def pytest_addoption(parser):
    parser.addoption(
        "--results-dir", action="store", default=None,
        help="directory for experiment-report artifacts "
             "(default: benchmarks/results/)")


def pytest_configure(config):
    global _results_dir
    override = config.getoption("--results-dir", default=None)
    if override:
        _results_dir = Path(override)


class ExperimentReport:
    """Collects one experiment's table plus paper-claim context."""

    def __init__(self, experiment_id: str) -> None:
        self.experiment_id = experiment_id
        self._lines: List[str] = []

    def claim(self, text: str) -> None:
        """Record the paper's claim this experiment checks."""
        self._lines.append(f"paper claim: {text}")

    def line(self, text: str = "") -> None:
        """Append a free-form output line."""
        self._lines.append(text)

    def table(self, headers, rows) -> None:
        """Append an aligned table."""
        from repro.obs import format_table

        self._lines.append(format_table(headers, rows))

    def outcome(self, text: str) -> None:
        """Record the measured outcome / verdict line."""
        self._lines.append(f"measured: {text}")

    def finish(self) -> None:
        body = "\n".join(self._lines)
        _TABLES.append((self.experiment_id, body))
        _results_dir.mkdir(parents=True, exist_ok=True)
        path = _results_dir / f"{self.experiment_id}.txt"
        path.write_text(body + "\n")


@pytest.fixture
def experiment():
    """Create an :class:`ExperimentReport`; auto-finishes after the test."""
    reports: List[ExperimentReport] = []

    def make(experiment_id: str) -> ExperimentReport:
        report = ExperimentReport(experiment_id)
        reports.append(report)
        return report

    yield make
    for report in reports:
        report.finish()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _TABLES:
        return
    terminalreporter.write_sep("=", "experiment reports (paper vs measured)")
    for experiment_id, body in _TABLES:
        terminalreporter.write_sep("-", experiment_id)
        for line in body.splitlines():
            terminalreporter.write_line(line)
