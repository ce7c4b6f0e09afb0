"""``BENCHMARK.json`` against the catalogue and the contract's limits,
and a ``--quick`` suite that must print every metric it names."""

import json
import re
import subprocess
import sys

from bench import catalog
from bench.harness import REPO_ROOT

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_manifest():
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def test_manifest_is_generated_from_the_catalogue():
    assert load_manifest() == catalog.manifest()


def test_manifest_keeps_the_contracts_limits():
    manifest = load_manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["bench"]
    assert 1 <= manifest["run_seconds"] <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = []
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in manifest["end_to_end"])}]
    assert len(json.dumps(manifest)) < 64 * 1024


def test_every_per_layer_metric_names_what_it_should_move():
    for metric in catalog.PER_LAYER:
        assert set(metric.moves) <= set(catalog.END_TO_END_NAMES), metric
        assert set(metric.on) <= set(catalog.WORKLOAD_NAMES), metric
        assert set(metric.not_on) <= set(catalog.WORKLOAD_NAMES), metric
        assert not set(metric.on) & set(metric.not_on), metric
        if metric.moves:
            assert metric.on, f"{metric.name} moves something nowhere"


def test_quick_suite_prints_every_metric_of_the_manifest(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--quick", "--seed", "3",
         "--out", str(tmp_path)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    printed = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] in catalog.WORKLOAD_NAMES:
            printed.setdefault(parts[0], set()).add(parts[1])
    wanted = (set(catalog.END_TO_END_NAMES) | set(catalog.PER_LAYER_NAMES)
              | {"failed_share"})
    for workload in catalog.WORKLOAD_NAMES:
        assert wanted <= printed.get(workload, set()), (
            workload, sorted(wanted - printed.get(workload, set())))
    results = json.loads((tmp_path / "results.json").read_text())
    assert results["comparable"] is False and results["ok"] is True
    detail = json.loads((tmp_path / "sim_chain.trace0.json").read_text())
    for key in ("commit", "nproc", "python", "switchinterval_s"):
        assert key in detail["environment"]
    assert detail["detail"]["phases"][0]["loop"] == "closed"
