"""Every shipped example must run cleanly (doc/example rot guard)."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"

EXAMPLES = [
    "quickstart.py",
    "retailer_checkins.py",
    "hot_topics.py",
    "reputation.py",
    "cluster_simulation.py",
    "hotspot_splitting.py",
    "muppet1_vs_muppet2.py",
    "bulk_dump.py",
    "appendix_a.py",
]


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, (
        f"{script} failed:\n{result.stdout[-2000:]}\n"
        f"{result.stderr[-2000:]}"
    )
    assert result.stdout.strip(), f"{script} produced no output"


def test_all_examples_are_listed():
    """New example files must be added to the smoke list above."""
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(EXAMPLES)
