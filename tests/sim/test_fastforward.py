"""Inline advancement on the one per-event path: identity with the exact
engine's goldens, determinism, and fallback boundaries.

The contract under test (see :meth:`repro.sim.des.Simulator._drain`):
running a handler's continuation inline instead of through the heap
changes nothing observable — ``counter_report()``, the step count and
the final slates equal what the exact stepper produced (pinned by the
``golden_features`` campaign, recorded before that stepper was deleted) — and
inline advancement never jumps over a heap-scheduled fault, timer, or
ring change. Every configuration runs the same compiled handlers, so the
features that used to force a separate "exact" engine (tracing,
effectively-once, batching) advance inline too.
"""

import pytest

from repro.campaign.golden import SCENARIOS, chain_app, row_of
from repro.cluster import ClusterSpec
from repro.sim import SimConfig, SimRuntime, create_runtime
from repro.sim.sources import Source
from tests.conftest import make_events
from tests.sim.test_golden_reports import COMMITTED

GOLDEN = {row["params"]["row"]: row["metrics"] for row in COMMITTED["cells"]}


def _pinned(name):
    """Run one golden scenario; assert its row; hand back the run."""
    runtime, report, updaters = SCENARIOS[name]()
    assert row_of(runtime, report, updaters) == GOLDEN[name]
    return runtime, report


class TestIdentityWithExactGoldens:
    """The exact stepper's reports and slates, byte for byte."""

    @pytest.mark.parametrize("fastforward", [False, True])
    def test_dense_pipeline_whatever_the_retired_knob_says(self,
                                                           fastforward):
        # SimConfig.fastforward selects nothing: both values, and both
        # constructors, build the same runtime.
        runtime = create_runtime(
            chain_app(), ClusterSpec.uniform(4, cores=4),
            SimConfig(fastforward=fastforward),
            [Source("S1", iter(make_events(4_000, keys=8,
                                           spacing=0.00002)))])
        assert type(runtime) is SimRuntime
        report = runtime.run(6.0)
        assert row_of(runtime, report, ("U1",)) == GOLDEN["muppet2_dense"]

    def test_quiescent_gaps_are_inlined_not_approximated(self):
        # 50 ms spacing dwarfs per-event service time: every started
        # event's finish chains through the trampoline, and the totals
        # still match.
        runtime, report = _pinned("muppet2_quiescent_gaps")
        assert runtime.sim.inlined_steps >= report.counters.processed

    def test_seeded_chaos(self):
        # Crash + revive one machine mid-run under a seeded schedule:
        # loss accounting, recovery and rehydration on the cold paths.
        runtime, report = _pinned("trace_on_chaos")
        assert report.robustness.recoveries == 1


class TestFormerlyExactOnlyFeaturesAdvanceInline:
    """Tracing, effectively-once and batching used to switch the fused
    handlers off; now they are branches on the same handlers."""

    @pytest.mark.parametrize("name", ["trace_on_chaos",
                                      "effectively_once_batching_crash",
                                      "shedding_e22_thin",
                                      "muppet1_workers_per_function"])
    def test_same_handlers_same_goldens(self, name):
        runtime, _ = _pinned(name)
        summary = runtime.ff_summary()
        assert summary["inlined_steps"] > 0
        assert (summary["inlined_steps"] + summary["heap_steps"]
                == runtime.sim.steps)


class TestThreeRunDeterminism:
    def test_reports_identical_across_runs(self):
        def one():
            runtime, report, _ = SCENARIOS["muppet2_dense"]()
            return (row_of(runtime, report, ("U1",)),
                    runtime.sim.inlined_steps)

        first, second, third = one(), one(), one()
        assert first == second == third


class TestFallbackBoundary:
    """Inline advancement must stop at every heap-scheduled cold event."""

    def test_scheduled_fault_in_a_quiescent_gap_still_fires(self):
        runtime, report = _pinned("crash_in_quiescent_gap")
        assert runtime.sim.inlined_steps > 0
        assert report.robustness.recoveries == 1
        assert runtime.machines["m002"].alive

    def test_timers_fire_despite_inline_advancement(self):
        runtime, _ = _pinned("timers_one_per_key")
        assert runtime.sim.inlined_steps > 0
        fired = sum(v["fired"] for v in runtime.slates_of("U1").values())
        assert fired == 10  # one timer per key, none skipped

    def test_ring_change_broadcast_is_not_skipped(self):
        # The join at t=1.5 lies in the post-burst quiescent stretch.
        runtime, _ = _pinned("join_in_quiescent_gap")
        assert runtime.sim.inlined_steps > 0
        assert "m900" in runtime.machines
        assert "m900" in runtime._machine_ring.live_members
