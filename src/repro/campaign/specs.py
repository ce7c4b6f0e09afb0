"""The shipped campaigns.

Three grids defined here — ``capacity`` commits the ROADMAP's
capacity-planning curve (machines needed for a rate at p99 < 2 s),
``delivery_matrix`` the E6e exactness matrix (delivery semantics x
crash schedule), ``elasticity`` the E24 diurnal swing — the timed
``perf_baseline`` (``BENCH_PERF.json``) from :mod:`repro.campaign.perf`,
one campaign per paper-vs-measured table of DESIGN.md SS3, collected
from the ``f*``/``e*`` modules beside this one, and the E23 feature
matrix ``golden_features`` from :mod:`repro.campaign.golden`. Each spec is
plain data plus ``module:callable`` hooks.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.campaign import (
    e1_scaling,
    e2_latency,
    e3_muppet1_vs_2,
    e4_hotspot,
    e5_key_splitting,
    e6_failures,
    e7_overflow,
    e8_ssd,
    e9_flush,
    e10_ttl,
    e11_slate_size,
    e12_baselines,
    e13_reads,
    e14_extensions,
    e17_profiles_spikes,
    e19_consistency,
    e22_shedding,
    f2_routing,
    golden,
    perf,
)
from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigurationError

Row = Dict[str, Any]

#: Rates for the capacity curve: the paper's production rate (~1.2k
#: ev/s, >100 M tweets/day) and 2x/4x/8x that, per ROADMAP item 1's
#: "and then 10-100x" direction scaled to what a 16-machine grid can
#: meaningfully resolve.
_CAPACITY_RATES = [1200.0, 2400.0, 4800.0, 9600.0]
_CAPACITY_MACHINES = [2, 4, 6, 8, 12, 16]


def _ok_rows(rows: List[Row]) -> List[Row]:
    return [row for row in rows if row["status"] == "ok"]


def machines_needed(rows: List[Row]) -> Dict[float, Any]:
    """Smallest machine count meeting the budget, per rate (the curve)."""
    curve: Dict[float, Any] = {}
    for row in _ok_rows(rows):
        rate = float(row["params"]["rate"])
        curve.setdefault(rate, None)
        if row["metrics"]["meets_budget"]:
            machines = int(row["params"]["machines"])
            if curve[rate] is None or machines < curve[rate]:
                curve[rate] = machines
    return curve


def verify_capacity(rows: List[Row]) -> List[str]:
    """The grid must span the knee: every rate achievable at the top
    machine count, the top rate not achievable at the bottom one, and
    meets_budget monotone in machines (more machines never break an
    already-met plan)."""
    failures: List[str] = []
    by_rate: Dict[float, List[Row]] = {}
    for row in rows:
        by_rate.setdefault(float(row["params"]["rate"]), []).append(row)
    for rate, cells in sorted(by_rate.items()):
        cells.sort(key=lambda row: int(row["params"]["machines"]))
        met = [c for c in cells if c["metrics"]["meets_budget"]]
        if not met:
            failures.append(f"rate {rate}: no machine count meets the budget")
            continue
        first_met = int(met[0]["params"]["machines"])
        for cell in cells:
            machines = int(cell["params"]["machines"])
            if machines > first_met and not cell["metrics"]["meets_budget"]:
                failures.append(
                    f"rate {rate}: meets_budget not monotone — {first_met} "
                    f"machines pass but {machines} fail"
                )
    top_rate = max(by_rate)
    smallest = min(by_rate[top_rate], key=lambda row: int(row["params"]["machines"]))
    if smallest["metrics"]["meets_budget"]:
        failures.append(
            f"rate {top_rate}: even {smallest['params']['machines']} "
            "machines meet the budget — the grid does not span the knee"
        )
    return failures


def summarize_capacity(rows: List[Row]) -> List[str]:
    """The capacity-planning curve as a markdown table."""
    curve = machines_needed(rows)
    lines = [
        "Machines needed to absorb a rate at p99 < 2 s with zero loss",
        "(smallest passing machine count per rate):",
        "",
        "| rate (ev/s) | machines needed |",
        "| --- | --- |",
    ]
    for rate in sorted(curve):
        needed = "> grid max" if curve[rate] is None else str(curve[rate])
        lines.append(f"| {rate:g} | {needed} |")
    return lines


def verify_delivery(rows: List[Row]) -> List[str]:
    """The E6e exactness matrix: fault-free runs are exact under every
    mode; effectively-once is exact under *every* crash schedule;
    at-most-once under-counts and at-least-once over-counts whenever a
    crash actually happened, and effectively-once gets there by deduping
    replays and reapplying lost effects across checkpoint epochs."""
    failures: List[str] = []
    for row in rows:
        delivery = row["params"]["delivery"]
        faults = row["params"]["faults"]
        metrics = row["metrics"]
        label = f"{delivery} x {faults}"
        if faults == "none" and not metrics["exact"]:
            failures.append(
                f"{label}: fault-free run not exact "
                f"({metrics['counted']}/{metrics['offered']})"
            )
        if delivery == "effectively-once" and not metrics["exact"]:
            failures.append(
                f"{label}: effectively-once must be exact, got "
                f"{metrics['counted']}/{metrics['offered']} "
                f"(delta {metrics['delta']:+d})"
            )
        if faults != "none" and delivery == "at-most-once":
            if metrics["delta"] >= 0:
                failures.append(
                    f"{label}: at-most-once should under-count under "
                    f"crashes, got delta {metrics['delta']:+d}"
                )
        if faults != "none" and delivery == "at-least-once":
            if metrics["delta"] <= 0:
                failures.append(
                    f"{label}: at-least-once should over-count under "
                    f"crashes, got delta {metrics['delta']:+d}"
                )
        if faults != "none" and delivery == "effectively-once":
            for counter in ("replay_deduped", "replay_reapplied", "checkpoint_epochs"):
                if metrics[counter] <= 0:
                    failures.append(f"{label}: {counter} is {metrics[counter]}")
    return failures


def verify_elasticity(rows: List[Row]) -> List[str]:
    """The E24 claims, judged on the committed matrix: both handoff
    modes ride the swing 2 -> 16 -> 2 with exact effectively-once
    counts, zero loss, zero aborted migrations — and the incremental
    handoff moves strictly fewer bytes than the full-rehydration
    ablation."""
    failures: List[str] = []
    moved: Dict[str, int] = {}
    for row in rows:
        handoff = row["params"]["handoff"]
        metrics = row["metrics"]
        moved[handoff] = int(metrics["moved_bytes"])
        if not metrics["exact"]:
            failures.append(
                f"{handoff}: not exact — counted {metrics['counted']} "
                f"of {metrics['expected']}"
            )
        if metrics["lost"]:
            failures.append(f"{handoff}: lost {metrics['lost']} events")
        if metrics["moved_bytes"] <= 0:
            failures.append(f"{handoff}: the handoff moved no bytes")
        if metrics["migrations_aborted"]:
            failures.append(
                f"{handoff}: {metrics['migrations_aborted']} migrations aborted"
            )
        if metrics["peak_machines"] != 16 or metrics["final_machines"] != 2:
            failures.append(
                f"{handoff}: swing was 2 -> {metrics['peak_machines']} -> "
                f"{metrics['final_machines']}, expected 2 -> 16 -> 2"
            )
        # GROW_STEP = SHRINK_STEP = 2: each decision is two migrations.
        decisions = metrics["scale_ups"] + metrics["scale_downs"]
        if metrics["migrations_completed"] != 2 * decisions:
            failures.append(
                f"{handoff}: {metrics['migrations_completed']} migrations "
                f"for {decisions} scaling decisions"
            )
    if moved["incremental"] >= moved["full"]:
        failures.append(
            f"incremental handoff moved {moved['incremental']} bytes, "
            f"not fewer than full rehydration's {moved['full']}"
        )
    return failures


CAPACITY = CampaignSpec(
    name="capacity",
    description=(
        "Capacity planning (the paper's SS5 grid): machines x offered "
        "rate, judged against the 2 s p99 budget with zero loss; the "
        "summary is the machines-needed-for-rate curve."
    ),
    scenario="repro.campaign.scenarios:capacity_cell",
    grid={"machines": _CAPACITY_MACHINES, "rate": _CAPACITY_RATES},
    fixed={"duration": 2.0, "keys": 128},
    smoke_grid={"machines": [2, 4, 8], "rate": [1200.0, 4800.0]},
    verify="repro.campaign.specs:verify_capacity",
    summarize="repro.campaign.specs:summarize_capacity",
)

DELIVERY_MATRIX = CampaignSpec(
    name="delivery_matrix",
    description=(
        "Delivery semantics x crash schedule (the E6e matrix): "
        "at-most-once under-counts, at-least-once over-counts, "
        "effectively-once is exact under every schedule."
    ),
    scenario="repro.campaign.scenarios:delivery_cell",
    grid={
        "delivery": ["at-most-once", "at-least-once", "effectively-once"],
        "faults": ["none", "crash", "double_crash"],
    },
    fixed={"rate": 2000.0, "duration": 3.0},
    smoke_grid={
        "delivery": ["at-most-once", "at-least-once", "effectively-once"],
        "faults": ["none", "crash"],
    },
    verify="repro.campaign.specs:verify_delivery",
)

ELASTICITY = CampaignSpec(
    name="elasticity",
    description=(
        "The E24 diurnal autoscaling swing (2 -> 16 -> 2 machines) per "
        "handoff mode: live incremental migration vs the flush-barrier "
        "full-rehydration ablation; the artifact pins exactness and the "
        "moved-byte comparison."
    ),
    scenario="repro.campaign.scenarios:elasticity_cell",
    grid={"handoff": ["incremental", "full"]},
    fixed={"horizon": 90.0},
    verify="repro.campaign.specs:verify_elasticity",
)

SPECS: Dict[str, CampaignSpec] = {
    spec.name: spec
    for spec in (
        *perf.SPECS,
        CAPACITY,
        DELIVERY_MATRIX,
        ELASTICITY,
        # One module per experiment group of DESIGN.md SS3, each
        # exporting the ``SPECS`` of its tables.
        *f2_routing.SPECS,
        *e1_scaling.SPECS,
        *e2_latency.SPECS,
        *e3_muppet1_vs_2.SPECS,
        *e4_hotspot.SPECS,
        *e5_key_splitting.SPECS,
        *e6_failures.SPECS,
        *e7_overflow.SPECS,
        *e8_ssd.SPECS,
        *e9_flush.SPECS,
        *e10_ttl.SPECS,
        *e11_slate_size.SPECS,
        *e12_baselines.SPECS,
        *e13_reads.SPECS,
        *e14_extensions.SPECS,
        *e17_profiles_spikes.SPECS,
        *e19_consistency.SPECS,
        *e22_shedding.SPECS,
        *golden.SPECS,
    )
}


def get_spec(name: str) -> CampaignSpec:
    spec = SPECS.get(name)
    if spec is None:
        raise ConfigurationError(f"unknown campaign {name!r}; have {sorted(SPECS)}")
    return spec
