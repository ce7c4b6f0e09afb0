"""``python -m repro campaign <run|render|check|list>``.

Path conventions (all relative to the working directory, which CI and
the docs assume is the repo root):

* committed artifacts: ``campaigns/results/<name>.json`` + ``.md``
  (``perf_baseline`` overrides its JSON home to ``BENCH_PERF.json``);
* scratch runs (no ``--update``): ``campaigns/scratch/`` by default
  (gitignored; CI uploads it), ``--out DIR`` to redirect.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional, Tuple

from repro.campaign import artifact as art
from repro.campaign.grid import expand_grid
from repro.campaign.runner import Runner, render_artifact, verify_rows, write_outputs
from repro.campaign.spec import CampaignSpec
from repro.campaign.specs import SPECS, get_spec
from repro.errors import ConfigurationError

#: Default scratch directory for non-committed runs (gitignored).
SCRATCH_DIR = Path("campaigns") / "scratch"


def _run_paths(
    spec: CampaignSpec, update: bool, out: Optional[str]
) -> Tuple[Path, Path]:
    root = Path.cwd()
    if update:
        if out is not None:
            raise ConfigurationError("--update writes the committed paths; drop --out")
        return spec.committed_path(root), spec.markdown_path(root)
    out_dir = Path(out) if out is not None else SCRATCH_DIR
    return out_dir / f"{spec.name}.json", out_dir / f"{spec.name}.md"


def cmd_list(args: argparse.Namespace) -> int:
    for name, spec in sorted(SPECS.items()):
        cells = len(expand_grid(name, spec.grid))
        smoke = ""
        if spec.smoke_grid is not None:
            smoke = f" (smoke: {len(expand_grid(name, spec.smoke_grid))})"
        # Cells that time themselves want the machine to themselves:
        # CI reads this tag and runs those campaigns with one worker.
        timed = " [wall-clock]" if spec.volatile_metrics else ""
        print(f"{name}: {cells} cells{smoke}{timed}")
        print(f"  {spec.description}")
        print(f"  artifact: {spec.committed_path(Path('.'))}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    spec = get_spec(args.name)
    json_path, md_path = _run_paths(spec, args.update, args.out)
    resume_from = None
    if args.resume and json_path.exists():
        resume_from = art.load_artifact(json_path)
    runner = Runner(spec, workers=args.workers)
    result = runner.run(smoke=args.smoke, resume_from=resume_from)
    write_outputs(spec, result, json_path, md_path)
    grid_kind = "smoke grid" if args.smoke and spec.smoke_grid else "full grid"
    print(
        f"campaign {spec.name}: {len(result.rows)} cells ({grid_kind}), "
        f"{result.ran} ran, {result.resumed} resumed, {result.failed} failed"
    )
    print(f"wrote {json_path}")
    print(f"wrote {md_path}")
    for failure in result.verify_failures:
        print(f"  VERIFY FAIL: {failure}")
    if result.verify_failures:
        print(f"campaign {spec.name}: verification failed")
        return 1
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    spec = get_spec(args.name)
    root = Path.cwd()
    md_path = spec.markdown_path(root)
    render_artifact(spec, spec.committed_path(root), md_path)
    print(f"wrote {md_path}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    spec = get_spec(args.name)
    root = Path.cwd()
    committed_path = spec.committed_path(root)
    fresh_dir = Path(args.fresh) if args.fresh is not None else SCRATCH_DIR
    fresh_path = fresh_dir / f"{spec.name}.json"
    if not fresh_path.exists():
        print(
            f"no fresh artifact at {fresh_path}; run "
            f"`python -m repro campaign run {spec.name} --out {fresh_dir}` first"
        )
        return 2
    committed = art.load_artifact(committed_path)
    fresh = art.load_artifact(fresh_path)
    failures = art.compare_artifacts(committed, fresh, spec.volatile_metrics)
    failures.extend(verify_rows(spec, fresh["cells"]))
    for failure in failures:
        print(f"  FAIL {failure}")
    compared = len(fresh["cells"])
    if failures:
        print(
            f"campaign check {spec.name}: {len(failures)} failure(s) "
            f"across {compared} cells"
        )
        return 1
    print(
        f"campaign check {spec.name}: {compared}/{len(committed['cells'])} "
        "committed cells re-ran byte-identically"
    )
    return 0


def add_campaign_parser(sub: argparse._SubParsersAction) -> None:
    """Attach the ``campaign`` command tree to the main CLI."""
    campaign = sub.add_parser(
        "campaign",
        help="declarative parameter sweeps with committed artifacts",
    )
    tool = campaign.add_subparsers(dest="tool", required=True)

    listing = tool.add_parser("list", help="list the shipped campaigns")
    listing.set_defaults(campaign_fn=cmd_list)

    run = tool.add_parser(
        "run",
        help="expand a campaign grid and run it across local workers",
    )
    run.add_argument("name", help="a shipped campaign name")
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        help="local worker processes (default: 1)",
    )
    run.add_argument(
        "--smoke",
        action="store_true",
        help="run the spec's reduced smoke grid (CI)",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already ok in the target artifact",
    )
    run.add_argument(
        "--update",
        action="store_true",
        help="write the committed artifact paths (campaigns/results/, "
        "or BENCH_PERF.json for perf_baseline)",
    )
    run.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="scratch output directory (default: campaigns/scratch/)",
    )
    run.set_defaults(campaign_fn=cmd_run)

    render = tool.add_parser(
        "render",
        help="re-render the markdown table from the committed JSON artifact",
    )
    render.add_argument("name")
    render.set_defaults(campaign_fn=cmd_render)

    check = tool.add_parser(
        "check",
        help="diff a fresh artifact against the committed one cell for "
        "cell (volatile metrics excluded)",
    )
    check.add_argument("name")
    check.add_argument(
        "--fresh",
        metavar="DIR",
        default=None,
        help="directory holding the fresh artifact (default: campaigns/scratch/)",
    )
    check.set_defaults(campaign_fn=cmd_check)


def dispatch(args: argparse.Namespace) -> int:
    fn = args.campaign_fn
    result: int = fn(args)
    return result
