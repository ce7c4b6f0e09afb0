"""What the E-row campaigns share.

Every ``f*``/``e*`` module beside this one turns one experiment group
of DESIGN.md §3 into campaign data: a cell that runs one grid point and
returns flat scalars, and a verify hook that states the paper's claim
over the finished rows. Most cells drive the counting pipeline on a
simulated cluster and report latency in milliseconds; most hooks compare
two cells of a sweep. Those habits live here.

The cells keep the literal seeds, rates and durations of the one-shot
pytest scripts they replaced at PR 19, so the runner's hash-derived
per-cell seed goes unused — as in :mod:`repro.campaign.perf`, and for
the same reason: the numbers stay comparable with everything quoted
before.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.apps.counting import count_app
from repro.campaign.artifact import Row
from repro.campaign.spec import CampaignSpec, CellFn, Grid, VerifyFn
from repro.cluster import ClusterSpec
from repro.faults import FaultSchedule
from repro.obs.latency import LatencySummary
from repro.sim import SimConfig, SimRuntime
from repro.sim.report import SimReport
from repro.sim.sources import Source

Metrics = Dict[str, Any]


def ms(seconds: float) -> float:
    """Seconds as milliseconds, rounded as the first campaigns round."""
    return round(seconds * 1e3, 3)


def latency_of(report: SimReport, updater: Optional[str] = None) -> LatencySummary:
    """The run's latency summary, overall or of one updater. A run in
    which nothing completed has none, and fails its cell."""
    summary = report.latency
    if updater is not None:
        summary = report.latency_by_updater.get(updater)
    if summary is None:
        raise ValueError("no event completed: the run has no latency summary")
    return summary


def latency_ms(report: SimReport, fields: Sequence[str] = ("p50", "p99")) -> Metrics:
    """The named fields of the run's latency summary as ``<field>_ms``
    metrics (``maximum`` as ``max_ms``); by default the two percentiles
    most tables show."""
    summary = latency_of(report)
    return {
        f"{name.replace('maximum', 'max')}_ms": ms(getattr(summary, name))
        for name in fields
    }


def run_counting(
    source: Source,
    cluster: ClusterSpec,
    config: SimConfig,
    horizon_s: float,
    failures: Union[Sequence[Tuple[float, str]], FaultSchedule] = (),
) -> Tuple[SimRuntime, SimReport]:
    """``S1 -> M1(echo) -> U1(count)`` on ``cluster`` until ``horizon_s``."""
    runtime = SimRuntime(
        count_app("e-row-count"), cluster, config, [source], failures=failures
    )
    return runtime, runtime.run(horizon_s)


def counted(runtime: SimRuntime) -> int:
    """Events U1's slates account for."""
    return int(sum(slate["count"] for slate in runtime.slates_of("U1").values()))


def by_param(rows: List[Row], *names: str) -> Dict[Any, Metrics]:
    """Each cell's metrics under its value of the grid parameter
    ``names`` (a tuple of values when several are named)."""
    if len(names) == 1:
        return {row["params"][names[0]]: row["metrics"] for row in rows}
    return {
        tuple(row["params"][name] for name in names): row["metrics"] for row in rows
    }


def failed(*claims: Tuple[Optional[bool], str]) -> List[str]:
    """The claims that do not hold, as verify-failure messages."""
    return [message for holds, message in claims if not holds]


def e_row(
    name: str,
    claim: str,
    cell: CellFn,
    grid: Grid,
    verify: VerifyFn,
    **contract: Any,
) -> CampaignSpec:
    """The spec of one table: the paper's ``claim`` as its description,
    ``cell`` and ``verify`` named by the import path a spec refers to its
    hooks by, and the rest of the artifact ``contract`` (``fixed``,
    ``volatile_metrics``, ``smoke_grid``) passed through."""
    return CampaignSpec(
        name=name,
        description=claim,
        scenario=f"{cell.__module__}:{cell.__name__}",
        grid=grid,
        verify=f"{verify.__module__}:{verify.__name__}",
        **contract,
    )
