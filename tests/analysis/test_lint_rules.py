"""Each MUP rule: true positive, clean pass, honored suppression.

The known-bad snippets live as ``.txt`` fixtures (so the repo's own
linters never parse them) and are linted under *virtual* paths — rule
scoping works off the ``repro/...``-relative path, not the filesystem.
"""

from pathlib import Path

import pytest

from repro.analysis.lint import (SUPPRESSION_CODE, iter_rules, lint_paths,
                                 lint_source, normalize_relpath,
                                 parse_suppressions, rule_table)
from repro.errors import AnalysisError

FIXTURES = Path(__file__).parent / "fixtures"

#: Virtual path per rule: somewhere the rule's include scope covers.
_SCOPE = {
    "MUP001": "repro/sim/bad.py",
    "MUP002": "repro/workloads/bad.py",
    "MUP003": "repro/sim/bad.py",
    "MUP004": "repro/sim/bad.py",
    "MUP005": "repro/sim/bad.py",
    "MUP006": "repro/muppet/bad.py",
    "MUP007": "repro/sim/bad.py",
    "MUP008": "repro/muppet/local.py",
    "MUP009": "repro/sim/bad.py",
    "MUP010": "repro/elastic/bad.py",
}

#: Findings the bad fixture must produce (lower bound).
_MIN_FINDINGS = {
    "MUP001": 4,  # ctor default, time.time, time.sleep, datetime.now
    "MUP002": 2,  # unseeded Random(), random.uniform
    "MUP003": 4,  # .values(), .keys(), .items(), a set behind a local
    "MUP004": 2,  # store.write, store.put_many
    "MUP005": 1,
    "MUP006": 3,  # two field writes + object.__setattr__
    "MUP007": 2,  # bare except, except: pass
    "MUP008": 2,  # slate-under-manager, dispatch-under-timer
    "MUP009": 4,  # two dict literals, dataclasses.replace, aliased replace
    "MUP010": 4,  # .values(), set(...), time.time, .items()
}

ALL_CODES = sorted(_SCOPE)


def _lint_fixture(code: str, variant: str):
    source = (FIXTURES / f"{code.lower()}_{variant}.txt").read_text()
    rules = [r for r in iter_rules() if r.code == code]
    assert rules, f"rule {code} not registered"
    return lint_source(source, _SCOPE[code], rules=rules)


@pytest.mark.parametrize("code", ALL_CODES)
def test_rule_fires_on_bad_fixture(code):
    findings = _lint_fixture(code, "bad")
    assert len(findings) >= _MIN_FINDINGS[code]
    assert all(f.code == code for f in findings)
    # Findings carry the virtual path and a real location.
    assert all(f.path == _SCOPE[code] for f in findings)
    assert all(f.line >= 1 and f.col >= 1 for f in findings)


@pytest.mark.parametrize("code", ALL_CODES)
def test_rule_quiet_on_clean_source(code):
    clean = "def noop() -> None:\n    return None\n"
    rules = [r for r in iter_rules() if r.code == code]
    assert lint_source(clean, _SCOPE[code], rules=rules) == []


@pytest.mark.parametrize("code", ALL_CODES)
def test_suppression_with_reason_is_honored(code):
    findings = _lint_fixture(code, "suppressed")
    assert findings == [], [f.format() for f in findings]


def test_bare_noqa_is_a_mup000_finding():
    source = "import time\n\nnow = time.time()  # noqa: MUP001\n"
    findings = lint_source(source, "repro/sim/bad.py")
    codes = {f.code for f in findings}
    # The suppression does not count *and* the rule still fires.
    assert SUPPRESSION_CODE in codes
    assert "MUP001" in codes


def test_suppression_covers_only_listed_codes():
    source = ("import time\n\n"
              "def flush_all(items):\n"
              "    now = time.time()  # noqa: MUP002 -- wrong code\n"
              "    return now\n")
    findings = lint_source(source, "repro/sim/bad.py")
    assert {f.code for f in findings} == {"MUP001"}


def test_comma_separated_suppression_codes():
    by_line, bad = parse_suppressions(
        ["x = 1  # noqa: MUP001, MUP003 -- both audited"])
    assert by_line == {1: ("MUP001", "MUP003")}
    assert bad == []


def test_rule_scoping_by_path():
    # MUP004 must not fire inside the slate manager (the flush path
    # itself) but must fire in engine code.
    source = "def flush(self):\n    self.store.write('k', b'v')\n"
    in_engine = lint_source(source, "repro/sim/runtime.py")
    in_manager = lint_source(source, "repro/slates/manager.py")
    assert any(f.code == "MUP004" for f in in_engine)
    assert not any(f.code == "MUP004" for f in in_manager)


#: Where this round's protocol code moved: (rule, fixture, virtual path,
#: minimum findings). The rules' include patterns must follow it there.
_MOVED_SCOPES = [
    ("MUP010", "mup010_faults_bad", "repro/faults/driver.py", 2),
    ("MUP010", "mup010_shedding_bad", "repro/shedding/overload.py", 2),
    ("MUP010", "mup010_replay_bad", "repro/muppet/replay.py", 2),
    ("MUP001", "mup001_bad", "repro/elastic/controller.py", 4),
    ("MUP001", "mup001_bad", "repro/shedding/overload.py", 4),
]


@pytest.mark.parametrize("code,fixture,relpath,minimum", _MOVED_SCOPES)
def test_rule_scope_follows_the_moved_code(code, fixture, relpath, minimum):
    source = (FIXTURES / f"{fixture}.txt").read_text()
    rules = [r for r in iter_rules() if r.code == code]
    findings = lint_source(source, relpath, rules=rules)
    assert len(findings) >= minimum
    assert {f.code for f in findings} == {code}


#: Where ``# hot-path`` functions live: the engines and the per-event
#: helpers they call in the slate and store layers.
_HOT_PATH_SCOPES = ["repro/sim/runtime.py", "repro/muppet/dispatch.py",
                    "repro/core/slate.py", "repro/kvstore/commitlog.py"]


@pytest.mark.parametrize("relpath", _HOT_PATH_SCOPES)
def test_mup009_flags_json_codec_calls_in_hot_paths(relpath):
    rules = [r for r in iter_rules() if r.code == "MUP009"]
    bad = (FIXTURES / "mup009_json_bad.txt").read_text()
    findings = lint_source(bad, relpath, rules=rules)
    # json.dumps, the aliased dumps and json.loads; not the cold one.
    assert [f.line for f in findings] == [8, 13, 14]
    assert all("JSON codec" in f.message for f in findings)
    suppressed = (FIXTURES / "mup009_json_suppressed.txt").read_text()
    assert lint_source(suppressed, relpath, rules=rules) == []


def test_mup009_scope_stops_at_the_hot_layers():
    rules = [r for r in iter_rules() if r.code == "MUP009"]
    bad = (FIXTURES / "mup009_json_bad.txt").read_text()
    assert lint_source(bad, "repro/slates/codec.py", rules=rules) == []


def test_mup010_stays_out_of_the_threaded_engine():
    # muppet/ is in scope for replay.py only: local.py's handlers run
    # under real threads, which the model checker does not replay.
    source = (FIXTURES / "mup010_replay_bad.txt").read_text()
    rules = [r for r in iter_rules() if r.code == "MUP010"]
    assert lint_source(source, "repro/muppet/local.py", rules=rules) == []


def test_mup001_out_of_scope_for_workloads():
    # Workload generators are allowed wall-clock (not in MUP001 scope).
    source = "import time\n\nstamp = time.time()\n"
    findings = lint_source(source, "repro/workloads/tweets.py")
    assert not any(f.code == "MUP001" for f in findings)


def test_syntax_error_raises_analysis_error():
    with pytest.raises(AnalysisError, match="cannot parse"):
        lint_source("def broken(:\n", "repro/sim/bad.py")


def test_rule_table_lists_all_rules():
    table = rule_table()
    assert [row[0] for row in table] == ALL_CODES
    assert all(row[1] and row[2] for row in table)


def test_normalize_relpath_variants():
    assert normalize_relpath("src/repro/sim/runtime.py") == \
        "repro/sim/runtime.py"
    assert normalize_relpath("/abs/path/src/repro/core/event.py") == \
        "repro/core/event.py"
    assert normalize_relpath("repro/cli.py") == "repro/cli.py"


def test_lint_paths_on_missing_target():
    with pytest.raises(AnalysisError, match="does not exist"):
        lint_paths(["/nonexistent/dir/nope.py"])


def test_lint_paths_select_filters_rules(tmp_path):
    bad = tmp_path / "repro" / "sim"
    bad.mkdir(parents=True)
    (bad / "bad.py").write_text("import time\nnow = time.time()\n")
    report = lint_paths([str(bad)], select=["MUP002"])
    assert report.rules_run == 1
    assert report.findings == []
    report = lint_paths([str(bad)], select=["MUP001"])
    assert len(report.findings) == 1


def test_src_tree_is_lint_clean():
    """The repo's own contract: the final tree has zero findings."""
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    report = lint_paths([str(src)])
    assert report.files_checked > 80
    assert report.findings == [], [f.format() for f in report.findings]
