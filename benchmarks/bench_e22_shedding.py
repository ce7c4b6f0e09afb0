"""E22 — Graceful degradation under overload (shedding vs the paper's
three static policies).

The paper's overload story is blunt: when a queue fills, drop (lose
data), divert to a degraded overflow stream (lose full service), or
throttle the sources (lose latency). E22 adds the adaptive
overload-control subsystem (``repro.shedding``): backpressure tiers
driven by queue/latency signals, probabilistic thinning of thinnable
updaters with inverse-probability-weighted reconstruction (stratified
sampling — deterministically bounded per-key error), proactive
diversion, and source throttling as last resorts.

The workload is a Zipf hotspot (exponent 2.5 over 64 keys — ranks
0..3 carry ~95% of arrivals) against a deliberately expensive counter
at 2×/5×/10× cluster capacity. Ground truth comes from the Section 3
reference executor over the *same* materialized event list; the
claim under test: at 5× overload, thinning holds p99 inside the E2
2-second budget with **<1% max per-key counter error** and zero data
loss, where drop loses the majority of events outright.
"""

from __future__ import annotations

from repro.analysis.scenarios import (E22_POLICIES, build_e22_app,
                                      e22_overload_run, e22_source_events)
from repro.core.reference import ReferenceExecutor
from repro.obs import PAPER_LATENCY_BOUND_S
from repro.shedding.measure import (loss_summary, measure_counter_error)


def _run_policy(policy, overload, events, reference, **kwargs):
    runtime, report = e22_overload_run(policy=policy, overload=overload,
                                       events=list(events), **kwargs)
    error = measure_counter_error(runtime.slates_of("U1"), reference,
                                  "U1", "count")
    report.shedding_error = error.as_dict()
    return report, error


def _policy_row(policy, report, error):
    loss = loss_summary(report)
    p99 = report.latency_by_updater.get("U1")
    return [
        policy,
        f"{p99.p99:.3f}" if p99 else "-",
        f"{error.max_rel_error * 100:.2f}%",
        f"{error.mean_rel_error * 100:.3f}%",
        error.missing_keys,
        loss["lost"],
        loss["degraded"],
        loss["thinned"],
        f"{loss['throttle_paused_s']:.1f}",
    ]


_HEADERS = ["policy", "U1 p99 (s)", "max err", "mean err",
            "lost keys", "lost events", "degraded", "thinned",
            "paused (s)"]


def test_e22_overload_grid(benchmark, experiment):
    """The full policy × overload grid with reference ground truth."""

    def run():
        grid = {}
        for overload in (2.0, 5.0, 10.0):
            events = e22_source_events(overload)
            reference = ReferenceExecutor(
                build_e22_app(), max_events=2_000_000).run(list(events))
            grid[overload] = {
                policy: _run_policy(policy, overload, events, reference)
                for policy in E22_POLICIES
            }
        return grid

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    report = experiment("E22-overload-shedding")
    report.claim("adaptive thinning degrades gracefully: at 5x a Zipf "
                 "hotspot stays inside the E2 2 s p99 budget with <1% "
                 "max counter error and zero loss, where drop loses "
                 "most events and throttle blows the latency budget")
    for overload, results in grid.items():
        report.line(f"overload {overload:g}x "
                    f"({len(e22_source_events(overload))} events):")
        report.table(_HEADERS, [
            _policy_row(policy, *results[policy])
            for policy in E22_POLICIES])

    # -- the acceptance claims, at 5x --------------------------------------
    thin_report, thin_error = grid[5.0]["thin"]
    drop_report, drop_error = grid[5.0]["drop"]
    throttle_report, throttle_error = grid[5.0]["throttle"]
    thin_p99 = thin_report.latency_by_updater["U1"].p99
    assert thin_p99 < PAPER_LATENCY_BOUND_S
    assert thin_error.max_rel_error < 0.01
    assert thin_error.missing_keys == 0
    assert thin_report.counters.lost_total() == 0
    assert thin_report.shedding.thinned > 0
    # Drop loses events outright; its error is catastrophic next to
    # thinning's bounded estimates.
    assert drop_report.counters.lost_total() > 0
    assert drop_error.max_rel_error > 0.5
    # Throttle is lossless but blows the latency budget thinning holds.
    assert throttle_report.counters.lost_total() == 0
    assert (throttle_report.latency_by_updater["U1"].p99
            > PAPER_LATENCY_BOUND_S)
    # At 10x thinning alone cannot absorb the excess; the controller
    # escalates through its lossy tiers yet still holds the p99 budget
    # — degradation, not collapse.
    thin10_report, _ = grid[10.0]["thin"]
    assert thin10_report.latency_by_updater["U1"].p99 < PAPER_LATENCY_BOUND_S
    assert (thin10_report.counters.lost_total()
            < grid[10.0]["drop"][0].counters.lost_total())

    report.outcome(
        f"5x: thin p99 {thin_p99:.3f} s, max err "
        f"{thin_error.max_rel_error * 100:.2f}%, 0 lost; drop lost "
        f"{drop_report.counters.lost_total()} events (max err "
        f"{drop_error.max_rel_error * 100:.0f}%); throttle p99 "
        f"{throttle_report.latency_by_updater['U1'].p99:.1f} s")


def test_e22_replay_exact(benchmark, experiment):
    """Seeded overload runs replay exactly: same seed, same bytes."""

    def run():
        events = e22_source_events(5.0)
        _, first = e22_overload_run(policy="thin", overload=5.0,
                                    events=list(events))
        _, second = e22_overload_run(policy="thin", overload=5.0,
                                     events=list(events))
        return first.counter_report(), second.counter_report()

    first, second = benchmark.pedantic(run, rounds=1, iterations=1)
    report = experiment("E22b-replay-exact")
    report.claim("all probabilistic shedding decisions draw from a "
                 "seeded RNG consumed in DES order, so an overloaded "
                 "run replays byte-identically")
    assert first == second
    assert "overload.thinned=" in first
    report.outcome(f"two seeded 5x thin runs: counter_report "
                   f"byte-identical ({len(first.splitlines())} lines)")


def test_e22_smoke(benchmark, experiment):
    """Reduced-scale CI smoke: thin vs drop at 5x, shorter workload.

    Shorter run → fewer arrivals per hot key → looser (but still
    deterministic) stratified error bounds; the CI assertion budget is
    3% instead of the full-scale 1%.
    """

    def run():
        events = e22_source_events(5.0, duration_s=1.5)
        reference = ReferenceExecutor(
            build_e22_app(), max_events=500_000).run(list(events))
        thin = _run_policy("thin", 5.0, events, reference,
                           duration_s=1.5)
        drop = _run_policy("drop", 5.0, events, reference,
                           duration_s=1.5)
        return thin, drop

    (thin_report, thin_error), (drop_report, drop_error) = \
        benchmark.pedantic(run, rounds=1, iterations=1)
    report = experiment("E22c-smoke")
    report.claim("reduced-scale overload smoke for CI: thinning sheds "
                 "without losing, drop loses")
    report.table(_HEADERS, [
        _policy_row("thin", thin_report, thin_error),
        _policy_row("drop", drop_report, drop_error)])
    assert thin_report.latency_by_updater["U1"].p99 < PAPER_LATENCY_BOUND_S
    assert thin_error.max_rel_error < 0.03
    assert thin_report.counters.lost_total() == 0
    assert thin_report.shedding.thinned > 0
    assert drop_report.counters.lost_total() > 0
    report.outcome(
        f"thin: p99 {thin_report.latency_by_updater['U1'].p99:.3f} s, "
        f"max err {thin_error.max_rel_error * 100:.2f}%, 0 lost; "
        f"drop lost {drop_report.counters.lost_total()} events")
