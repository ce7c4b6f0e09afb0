"""Small-scope protocol models for the model checker.

Each :class:`McModel` is a complete, tiny, *tie-engineered* scenario:
an application, a cluster, a config, an explicit source-event list, and
a bounded :class:`~repro.faults.FaultLattice`. Tie engineering means the
timing surface is quantized so that concurrent transitions actually
collide on the DES clock — equal-timestamp source events, a 1 ms cost
grid, 1 ms network latency with infinite bandwidth (no payload-size
jitter) — because the checker branches exactly where the heap holds two
co-enabled entries. A model whose events never tie has one schedule and
proves nothing.

The four checked protocols (plus one deliberately broken variant):

* ``recovery`` — machine-failure broadcast + journal replay through the
  rerouted ring (Section 4.3 extended with effectively-once dedup).
* ``epoch`` — the checkpoint-epoch barrier: journal pruning must never
  outrun slate durability, even with a crash straddling the boundary.
* ``two_choice_dedup`` — effectively-once under the Section 4.5
  two-choice dispatcher, replay pins on (the PR-8 fix).
* ``two_choice_dedup_unpinned`` — the same model with replay pins
  neutered, resurrecting the pre-fix reorder residual: the checker is
  *expected* to find a counterexample here (and its minimized schedule
  is the committed regression artifact).
* ``migration`` — the live-handoff protocol
  (snapshot → delta → cutover → ack) under phase-placed participant
  crashes.

Small-scope hypothesis: protocol bugs show up at tiny bounds (a handful
of events, two or three machines, one fault). The bounds here are the
documented, deliberate scope of the exhaustive claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.lattice import (CrashSite, FaultLattice, MigrationSite,
                                  describe_schedule)
from repro.faults.schedule import FaultSchedule


def _quantized_costs() -> Any:
    """Every service time on a 1 ms grid so transitions tie."""
    from repro.sim.costs import CostModel
    return CostModel(
        source_service_s=0.001,
        map_service_s=0.001,
        update_service_s=0.001,
        ipc_overhead_s=0.0,
        dispatch_lock_s=0.0,
        slate_contention_s=0.0,
        context_switch_s=0.0,
        slate_byte_cost_s=0.0,
    )


def _tie_network() -> Any:
    """1 ms fixed hop, infinite bandwidth: transfer time is size-free."""
    from repro.cluster.topology import NetworkSpec
    return NetworkSpec(latency_s=0.001,
                       bandwidth_bytes_per_s=float("inf"))


def _cluster(count: int, cores: int) -> Any:
    from repro.cluster import ClusterSpec
    return ClusterSpec.uniform(count, cores=cores, network=_tie_network())


def build_mc_pipeline_app() -> Any:
    """S1 → M1(echo) → S2 → U1(count): the two-hop checked workflow."""
    from repro.apps.counting import count_app
    return count_app("mc-pipeline")


def build_mc_counter_app() -> Any:
    """S1 → U1(count): the one-hop workflow (two-choice model)."""
    from repro.apps.counting import count_app
    return count_app("mc-counter", hops=0)


def _events(sid: str, spec: List[Tuple[float, str]]) -> List[Any]:
    """Materialize ``(ts, key)`` pairs as source events (value = index)."""
    from repro.core.event import Event
    return [Event(sid, ts, key, i) for i, (ts, key) in enumerate(spec)]


class _NoPins(dict):
    """A replay-pin table that refuses to learn: every insert is
    discarded, so the dispatcher behaves exactly as it did before the
    replay-ordering guard existed. Installed by the ``unpinned`` model
    variant to resurrect the two-choice reorder residual."""

    def __setitem__(self, key: Any, value: Any) -> None:
        return


def _unpin_replay_guard(runtime: Any) -> None:
    for machine in runtime.machines.values():  # noqa: MUP010 -- patch every machine; order-free
        machine.replay_pins = _NoPins()


@dataclass(frozen=True)
class McScenario:
    """One concrete lattice point of a model: model + fault schedule."""

    model: "McModel"
    schedule: FaultSchedule
    index: int

    @property
    def label(self) -> str:
        return f"{self.model.name}[{self.index}:{describe_schedule(self.schedule)}]"

    def build(self) -> Any:
        """A fresh, un-run :class:`~repro.sim.SimRuntime` for this point."""
        return self.model.make_runtime(self.schedule)


@dataclass(frozen=True)
class McModel:
    """A checked protocol: builders, bounds, and properties.

    Attributes:
        name: Registry key (``analyze mc explore --model <name>``).
        description: One-line summary for reports.
        build_app: Fresh :class:`~repro.core.application.Application`.
        build_cluster: Fresh :class:`~repro.cluster.ClusterSpec`.
        build_config: Fresh :class:`~repro.sim.SimConfig` (must enable
            tracing; the checker asserts it).
        build_events: Fresh source-event list (explicit, equal-timestamp
            ties included by construction).
        source_sid: External stream the events are injected on.
        lattice: The bounded fault lattice explored around the model.
        horizon_s: Simulated drain horizon per schedule.
        checks: Trace invariants run at every terminal state.
        exact: Compare terminal slates against the
            :class:`~repro.core.reference.ReferenceExecutor`.
        exact_updater: Updater whose slates carry the ground truth.
        exact_field: Numeric slate field compared for exactness.
        setup: Optional hook run on the fresh runtime before the clock
            starts (e.g. scheduling a planned migration).
        patch: Optional hook that *breaks* the runtime on purpose
            (known-bug variants); a model with a patch is expected to
            yield counterexamples and is excluded from clean-run gates.
        expect_violations: Whether counterexamples are the expected
            outcome (True only for known-bug variants).
    """

    name: str
    description: str
    build_app: Callable[[], Any]
    build_cluster: Callable[[], Any]
    build_config: Callable[[], Any]
    build_events: Callable[[], List[Any]]
    lattice: FaultLattice
    source_sid: str = "S1"
    horizon_s: float = 2.0
    checks: Tuple[str, ...] = ("fifo", "watermarks", "ring_ownership")
    exact: bool = True
    exact_updater: str = "U1"
    exact_field: str = "count"
    setup: Optional[Callable[[Any], None]] = None
    patch: Optional[Callable[[Any], None]] = None
    expect_violations: bool = False

    def scenarios(self) -> List[McScenario]:
        """The lattice points, deterministically ordered."""
        return [McScenario(self, schedule, i)
                for i, schedule in enumerate(self.lattice.schedules())]

    def make_runtime(self, schedule: FaultSchedule) -> Any:
        """A fresh runtime wired for this model and one fault schedule."""
        from repro.sim import SimRuntime
        from repro.sim.sources import from_trace

        config = self.build_config()
        if not config.trace:
            raise ConfigurationError(
                f"model {self.name!r}: build_config must set trace=True "
                "(terminal properties are checked over the span trace)")
        source = from_trace(self.source_sid, self.build_events())
        runtime = SimRuntime(self.build_app(), self.build_cluster(),
                             config, [source], failures=schedule)
        if self.setup is not None:
            self.setup(runtime)
        if self.patch is not None:
            self.patch(runtime)
        return runtime

    def reference_slates(self) -> Dict[str, float]:
        """Ground-truth ``{key: value}`` from the reference executor."""
        from repro.core.reference import ReferenceExecutor
        result = ReferenceExecutor(self.build_app()).run(self.build_events())
        return result.numeric_slates(self.exact_updater, self.exact_field)


def _base_config(**overrides: Any) -> Any:
    from repro.sim import SimConfig
    from repro.slates.manager import FlushPolicy

    defaults: Dict[str, Any] = dict(
        costs=_quantized_costs(),
        delivery_semantics="effectively-once",
        flush_policy=FlushPolicy.every(0.05),
        flusher_period_s=0.05,
        # Deliberately offset from the flusher: a liveness sweep that
        # ties with every flusher tick multiplies pure control-plane
        # interleavings (no protocol content) at every 50 ms grid
        # point; 40 ms collides only at 200 ms multiples, keeping the
        # timer-vs-timer decision points that matter reachable without
        # drowning the search in tick shuffles.
        heartbeat_s=0.04,
        queue_capacity=10_000,
        trace=True,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


# -- recovery: failure broadcast + journal replay ------------------------

def _recovery_config() -> Any:
    return _base_config()


def _recovery_events() -> List[Any]:
    # Three equal-timestamp pairs across four keys: every pair is a
    # genuine delivery race (two machines, both directions), and the
    # last pair lands while the crash window is open.
    return _events("S1", [
        (0.0, "k0"), (0.0, "k1"),
        (0.01, "k2"), (0.01, "k3"),
        (0.03, "k0"), (0.03, "k2"),
    ])


RECOVERY_MODEL = McModel(
    name="recovery",
    description=("machine-recovery broadcast: crash detection, ring "
                 "re-route, journal replay, effectively-once dedup"),
    build_app=build_mc_pipeline_app,
    build_cluster=lambda: _cluster(2, cores=1),
    build_config=_recovery_config,
    build_events=_recovery_events,
    lattice=FaultLattice(
        crashes=(CrashSite("m001", at_times=(0.02,),
                           recover_after=(0.1, None)),),
        max_faults=1),
    horizon_s=1.0,
    checks=("fifo", "watermarks", "ring_ownership"),
)


# -- epoch: checkpoint barrier vs journal pruning ------------------------

def _epoch_config() -> Any:
    # A short epoch so the barrier fires inside the model's horizon;
    # the crash sites straddle the first barrier at t=0.2.
    return _base_config(checkpoint_epoch_s=0.2)


def _epoch_events() -> List[Any]:
    return _events("S1", [
        (0.0, "k0"), (0.0, "k1"),
        (0.15, "k0"), (0.15, "k1"),
        (0.22, "k0"), (0.22, "k1"),
    ])


EPOCH_MODEL = McModel(
    name="epoch",
    description=("checkpoint-epoch barrier: journal pruning must never "
                 "outrun slate durability across a crash at the boundary"),
    build_app=build_mc_pipeline_app,
    build_cluster=lambda: _cluster(2, cores=1),
    build_config=_epoch_config,
    build_events=_epoch_events,
    lattice=FaultLattice(
        crashes=(CrashSite("m001", at_times=(0.19, 0.23),
                           recover_after=(0.1,)),),
        max_faults=1),
    horizon_s=1.0,
    checks=("fifo", "watermarks", "ring_ownership"),
)


EPOCH_LAZY_DETECTION_MODEL = McModel(
    name="epoch_lazy_detection",
    description=("epoch without the liveness sweep: a quiet-window "
                 "crash is never declared, journal replay never fires, "
                 "and unflushed updates die with the cache — the "
                 "checker's first real find, kept as a known-bug model"),
    build_app=build_mc_pipeline_app,
    build_cluster=lambda: _cluster(2, cores=1),
    build_config=lambda: _base_config(checkpoint_epoch_s=0.2,
                                      heartbeat_s=None),
    build_events=_epoch_events,
    lattice=FaultLattice(
        crashes=(CrashSite("m001", at_times=(0.23,),
                           recover_after=(0.1,)),),
        include_empty=False,
        max_faults=1),
    horizon_s=1.0,
    checks=("fifo", "watermarks", "ring_ownership"),
    expect_violations=True,
)


# -- two-choice dedup: replay pins under the 4.5 dispatcher --------------

def _two_choice_config() -> Any:
    return _base_config(two_choice=True)


def _two_choice_events() -> List[Any]:
    # Two keys, chosen so the reorder residual is *reachable*. The
    # dispatcher's affinity check pins a key to whichever worker is
    # currently processing it, so a single hot key can never split
    # across workers — the race needs a filler key sharing the hot
    # key's primary worker. ``k0`` hashes to m001 (the crash victim);
    # ``f4`` hashes to m000 (the survivor) *and* to the same primary
    # worker index as ``k0``. The k0 pair is journaled before the
    # crash; the heartbeat declares m001 dead at 0.04 and the journal
    # replays to m000 at ~0.041 — exactly when the f4 pair (sourced
    # 0.039) arrives. With filler occupying the primary worker, the
    # scheduler can queue replayed k0:0 behind it, deepen the queue
    # with f4's second event, and spill replayed k0:1 to the idle
    # secondary — k0:1 applies first, the watermark advances, and
    # k0:0 is dedup-skipped. Replay pins forbid the split; with the
    # pins neutered the model checker finds the lost update.
    return _events("S1", [
        (0.0, "k0"), (0.0, "k0"),
        (0.039, "f4"), (0.039, "f4"),
    ])


TWO_CHOICE_MODEL = McModel(
    name="two_choice_dedup",
    description=("effectively-once under the two-choice dispatcher: "
                 "replay pins keep replayed events FIFO with fresh ones"),
    build_app=build_mc_counter_app,
    build_cluster=lambda: _cluster(2, cores=2),
    build_config=_two_choice_config,
    build_events=_two_choice_events,
    lattice=FaultLattice(
        crashes=(CrashSite("m000", at_times=(0.02,), recover_after=(0.1,)),
                 CrashSite("m001", at_times=(0.02,), recover_after=(0.1,))),
        max_faults=1),
    horizon_s=1.0,
    checks=("fifo", "watermarks", "two_choice"),
)


TWO_CHOICE_UNPINNED_MODEL = McModel(
    name="two_choice_dedup_unpinned",
    description=("two_choice_dedup with replay pins neutered: the "
                 "pre-fix reorder residual, expected to violate"),
    build_app=build_mc_counter_app,
    build_cluster=lambda: _cluster(2, cores=2),
    build_config=_two_choice_config,
    build_events=_two_choice_events,
    lattice=FaultLattice(
        crashes=(CrashSite("m000", at_times=(0.02,), recover_after=(0.1,)),
                 CrashSite("m001", at_times=(0.02,), recover_after=(0.1,))),
        max_faults=1),
    horizon_s=1.0,
    checks=("fifo", "watermarks", "two_choice"),
    patch=_unpin_replay_guard,
    expect_violations=True,
)


# -- migration: snapshot → delta → cutover → ack -------------------------

def _migration_config() -> Any:
    from repro.elastic import MigrationConfig
    return _base_config(migration=MigrationConfig(delta_round_s=0.02))


def _migration_events() -> List[Any]:
    return _events("S1", [
        (0.0, "k0"), (0.0, "k1"),
        (0.02, "k2"), (0.02, "k3"),
        (0.08, "k0"), (0.08, "k2"),
    ])


def _migration_setup(runtime: Any) -> None:
    runtime.schedule_remove_machine(0.05, "m001")


MIGRATION_MODEL = McModel(
    name="migration",
    description=("live slate handoff: snapshot/delta/cutover/ack under "
                 "phase-placed participant crashes"),
    build_app=build_mc_pipeline_app,
    build_cluster=lambda: _cluster(3, cores=1),
    build_config=_migration_config,
    build_events=_migration_events,
    lattice=FaultLattice(
        migrations=(MigrationSite(
            phases=("snapshot", "delta_stream", "cutover", "ack"),
            targets=("donor", "receiver")),),
        max_faults=1),
    horizon_s=2.0,
    checks=("fifo", "watermarks", "ring_ownership", "migration"),
    setup=_migration_setup,
)


#: Registry: every checked model by name. The ``unpinned`` variant is a
#: known-bug model (``expect_violations``): ``mc explore --all`` runs it
#: and asserts it *does* violate, the clean gate covers the rest.
MODELS: Dict[str, McModel] = {
    model.name: model
    for model in (RECOVERY_MODEL, EPOCH_MODEL, EPOCH_LAZY_DETECTION_MODEL,
                  TWO_CHOICE_MODEL, TWO_CHOICE_UNPINNED_MODEL,
                  MIGRATION_MODEL)
}
