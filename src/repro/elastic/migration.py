"""Crash-safe live slate migration: incremental handoff between owners.

The paper re-admits a recovered machine behind a cluster-wide flush
barrier (Section 4.3): every dirty slate is flushed, the ring flips, and
the new owner re-reads its slates from the key-value store. That is a
*full rehydration* — correct, but it moves every byte through the store
twice and stalls the flush path. This module implements the incremental
alternative for planned membership changes (elastic scale-up/down):

1. **snapshot** — the donor streams the encoded blobs of every resident
   slate that will change owner, while still owning the keys. Events
   keep flowing; nothing stops.
2. **delta_stream** — slates that changed since their last export
   (detected by the slate's monotone ``version`` counter, the same
   counter that drives encode-once caching) are re-streamed in rounds
   until the changed set is small or the round budget is spent.
3. **cutover** — at a single simulated instant the donor exports the
   final deltas, the receiver installs every staged blob (dirty, so it
   flushes on its own schedule), the hash ring flips, queued and
   journaled events re-address to the new owner, and the donor drops
   its copies. Atomic by construction in a discrete-event simulator:
   no event is delivered between these steps.
4. **ack** — the receiver flushes the imported slates so the store
   catches up with the handed-off state, then acks the master.
5. **release** — the master marks the migration complete and the
   replay-journal hold (taken at plan time) is released.

Crash safety: every phase is idempotent and resumable. A donor or
receiver crash before cutover *aborts* the migration — the donor still
owns every key, staged blobs are discarded, and the ordinary failure
machinery (exclusion + journal replay) handles the dead machine. A
crash after cutover is *completed* by the ordinary machinery: dedup
watermarks travelled inside the migrated blobs, journal entries for
moved keys were re-addressed to the receiver at cutover, and the
journal hold keeps them replayable until the receiver's ack — so
replay-after-crash neither loses nor duplicates updates under
effectively-once delivery. A master crash merely pauses coordination:
the phase ledger survives, and the current phase re-drives after
``MASTER_RESUME_S``.

The coordinator drives the protocol against the sim runtime and owns no
engine state beyond the in-flight migration. Of the runtime's internals
it uses four: the machine ring (to plan), the forced batch flush and the
ring-change primitive (to cut over), and the failure declaration (for a
receiver found dead at ack). What the engine does around a cutover or a
completion is the :class:`~repro.elastic.controller.ElasticController`'s
business, reached through its two hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple)

from repro.cluster.hashring import route_key
from repro.core.slate import SlateKey
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.elastic.controller import ElasticController
    from repro.faults.schedule import FaultEvent

#: The migration phases, in protocol order. Fault triggers
#: (``FaultSchedule.at_migration``) and the master's ledger use exactly
#: these names.
MIGRATION_PHASES: Tuple[str, ...] = (
    "snapshot", "delta_stream", "cutover", "ack", "release")

#: Crash targets a migration-phase fault trigger may name.
MIGRATION_TARGETS: Tuple[str, ...] = ("donor", "receiver", "master")

#: Nominal wire size of a control message (ack, phase record).
_CONTROL_MSG_BYTES = 64

#: Delta-stream rounds before forcing cutover.
MAX_DELTA_ROUNDS = 3
#: Cut over once a round re-exports at most this many changed slates.
DELTA_THRESHOLD = 8
#: How long coordination pauses after a master crash before re-driving
#: the current phase from the ledger.
MASTER_RESUME_S = 0.25


@dataclass(frozen=True)
class MigrationConfig:
    """Tuning knobs for the live-handoff protocol.

    Attributes:
        delta_round_s: Minimum spacing between delta rounds.
        full_rehydration: Ablation knob (bench E24): replace the
            incremental handoff with the legacy flush-barrier + lazy
            kv rehydration, keeping the same phase ledger so the two
            strategies are comparable run-for-run.
    """

    delta_round_s: float = 0.05
    full_rehydration: bool = False

    def __post_init__(self) -> None:
        if self.delta_round_s <= 0:
            raise ConfigurationError(
                f"delta_round_s must be positive, got "
                f"{self.delta_round_s!r}")


@dataclass(slots=True)
class MigrationCounters:
    """Handoff accounting, registered under the ``elastic`` family."""

    started: int = 0
    completed: int = 0
    aborted: int = 0
    resumed: int = 0
    snapshot_slates: int = 0
    snapshot_bytes: int = 0
    delta_rounds: int = 0
    delta_slates: int = 0
    delta_bytes: int = 0
    cutover_slates: int = 0
    cutover_bytes: int = 0
    handoff_slates: int = 0
    journal_readdressed: int = 0
    full_barrier_slates: int = 0
    #: Network bytes the full-rehydration ablation moved for the moving
    #: set: one barrier write per kv replica plus the receiver's cold
    #: first-touch read, per slate.
    full_barrier_bytes: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Field snapshot for the metrics registry."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def incremental_bytes(self) -> int:
        """Total bytes streamed donor→receiver by incremental handoffs."""
        return self.snapshot_bytes + self.delta_bytes + self.cutover_bytes


@dataclass(slots=True)
class _Staged:
    """One exported slate blob staged at the receiver, pre-install."""

    blob: bytes
    ttl: Optional[float]
    last_update_ts: float


@dataclass
class HandoffStream:
    """One donor→receiver changelog within a migration."""

    donor: str
    receiver: str
    keys: List[SlateKey]
    exported_versions: Dict[SlateKey, int] = field(default_factory=dict)
    staged: Dict[SlateKey, _Staged] = field(default_factory=dict)


@dataclass
class MigrationState:
    """One in-flight membership change and its handoff streams."""

    epoch: int
    kind: str            # "join" | "retire"
    machine: str         # the joining or retiring machine
    phase: str
    streams: List[HandoffStream]
    token: str           # replay-journal hold token
    rounds: int = 0
    final_bytes: int = 0

    def donors(self) -> List[str]:
        """Distinct donor machines, sorted (deterministic)."""
        return sorted({s.donor for s in self.streams})

    def receivers(self) -> List[str]:
        """Distinct receiver machines, sorted (deterministic)."""
        return sorted({s.receiver for s in self.streams})


class MigrationCoordinator:
    """Drives the five-phase handoff protocol on the sim runtime.

    One migration is in flight at a time; concurrent requests queue in
    the elastic controller. The coordinator is the *master's* logic — phase
    transitions are journaled in the master's migration ledger, and a
    simulated master crash pauses (never corrupts) the protocol.
    """

    def __init__(self, runtime: Any, config: MigrationConfig,
                 elastic: "ElasticController",
                 kill: Callable[[str], None]) -> None:
        self.rt = runtime
        self.config = config
        self.elastic = elastic
        self._kill = kill
        self.counters = MigrationCounters()
        self.active: Optional[MigrationState] = None
        #: Deterministic one-shot crash triggers (FaultSchedule DSL).
        self._triggers: List["FaultEvent"] = (
            runtime.fault_schedule.migration_triggers())
        self._consumed: set = set()
        self._master_down_until = 0.0

    # -- planning ----------------------------------------------------------
    def begin(self, kind: str, machine: str) -> bool:
        """Plan and start a migration; False if one is already active.

        For ``kind="join"`` the machine must already be constructed
        (alive, probes registered) but not yet a ring member; for
        ``kind="retire"`` it must be a live ring member.
        """
        if self.active is not None:
            return False
        now = self.rt.sim.now()
        streams = self._plan_streams(kind, machine)
        epoch = self.rt.master.begin_migration(kind, machine)
        token = f"migration-{epoch}"
        journal = self.rt.replay_journal
        if journal is not None:
            # Migration-aware pruning: entries recorded from here on
            # may need replay until the receiver's ack (the handed-off
            # state is durable only in the receiver's cache between
            # cutover and ack), so checkpoint-epoch pruning must not
            # outrun an in-flight handoff.
            journal.hold(token, now)
        mig = MigrationState(epoch=epoch, kind=kind, machine=machine,
                             phase="plan", streams=streams, token=token)
        self.active = mig
        self.counters.started += 1
        self._span(now, phase="plan", mig=mig,
                   slates=sum(len(s.keys) for s in mig.streams))
        self.rt.sim.schedule_in(0.0, lambda _sim: self._phase_snapshot(mig))
        return True

    def _plan_streams(self, kind: str, machine: str) -> List[HandoffStream]:
        """Compute which resident slates change owner, per donor→receiver.

        Only *resident* slates stream: a non-resident slate's freshest
        state already lives in the key-value store, so its new owner
        rehydrates it on first touch exactly like any cache miss (the
        dedup watermarks ride the stored blob). Dirty slates are always
        resident, so nothing unflushed can be missed.
        """
        rt = self.rt
        if kind == "join":
            shadow = rt._machine_ring.preview(add=(machine,))
        else:
            shadow = rt._machine_ring.preview(remove=(machine,))
        by_pair: Dict[Tuple[str, str], List[SlateKey]] = {}
        for donor_name in sorted(rt.machines):
            donor = rt.machines[donor_name]
            if not donor.alive or getattr(donor, "retired", False):
                continue
            if kind == "retire" and donor_name != machine:
                continue
            for slate_key in donor.central_mgr.cache.resident():
                rk = route_key(slate_key.key, slate_key.updater)
                if rt._machine_ring.lookup(rk) != donor_name:
                    continue  # stale orphan copy; the owner's copy moves
                new_owner = shadow.lookup(rk)
                if new_owner is None or new_owner == donor_name:
                    continue
                by_pair.setdefault((donor_name, new_owner),
                                   []).append(slate_key)
        return [HandoffStream(donor=d, receiver=r, keys=sorted(keys))
                for (d, r), keys in sorted(by_pair.items())]

    # -- phase plumbing ----------------------------------------------------
    def _span(self, now: float, *, phase: str, mig: MigrationState,
              **extra: Any) -> None:
        tracer = self.rt.tracer
        if tracer is not None:
            # "kind" is the span kind itself; the join/retire direction
            # travels as "scale".
            tracer.emit(now, "migration", phase=phase, epoch=mig.epoch,
                        scale=mig.kind, machine=mig.machine, **extra)

    def _take_trigger(self, phase: str) -> Optional["FaultEvent"]:
        for idx, trigger in enumerate(self._triggers):
            if idx in self._consumed:
                continue
            if trigger.phase == phase:
                self._consumed.add(idx)
                return trigger
        return None

    def _enter(self, mig: MigrationState, phase: str,
               reenter_action: Any) -> bool:
        """Common phase preamble: triggers, master ledger, liveness.

        Returns True when the phase body should run now; False when the
        migration aborted or the phase was re-scheduled (master down).
        """
        rt = self.rt
        now = rt.sim.now()
        mig.phase = phase
        trigger = self._take_trigger(phase)
        if trigger is not None:
            self._fire_trigger(mig, trigger)
        if now < self._master_down_until:
            # The coordinator *is* master logic: with the master down,
            # this transition cannot be journaled, so the whole phase
            # re-drives from the ledger once the master is back. Every
            # phase body is idempotent, which is what makes the re-drive
            # safe from any point.
            delay = self._master_down_until - now
            self.counters.resumed += 1
            self._span(now, phase=phase, mig=mig, paused=True)
            rt.sim.schedule_in(delay, reenter_action)
            return False
        rt.master.record_migration_phase(mig.epoch, phase)
        if phase in ("snapshot", "delta_stream", "cutover"):
            dead = [name for name in mig.donors() + mig.receivers()
                    if not rt.machines[name].alive]
            if mig.kind == "join" and not rt.machines[mig.machine].alive:
                dead.append(mig.machine)
            if dead:
                self._abort(mig, reason=f"dead:{','.join(sorted(set(dead)))}")
                return False
        return True

    def _fire_trigger(self, mig: MigrationState,
                      trigger: "FaultEvent") -> None:
        rt = self.rt
        now = rt.sim.now()
        target = trigger.target or "donor"
        if target == "master":
            self._master_down_until = max(
                self._master_down_until,
                now + MASTER_RESUME_S)
            return
        if trigger.machine is not None:
            victim = trigger.machine
        elif target == "receiver":
            receivers = mig.receivers() or [mig.machine]
            victim = receivers[0]
        else:
            donors = mig.donors() or [mig.machine]
            victim = donors[0]
        if rt.machines[victim].alive:
            self._kill(victim)

    def _abort(self, mig: MigrationState, reason: str) -> None:
        """Abandon a pre-cutover migration; the donor still owns all keys.

        Staged blobs never became authoritative, so dropping them loses
        nothing; any crashed participant is handled by the ordinary
        failure machinery (exclusion + journal replay).
        """
        rt = self.rt
        now = rt.sim.now()
        for stream in mig.streams:
            stream.staged.clear()
        journal = rt.replay_journal
        if journal is not None:
            journal.release(mig.token)
        rt.master.abort_migration(mig.epoch, reason)
        self.counters.aborted += 1
        self._span(now, phase="abort", mig=mig, reason=reason)
        self.active = None
        self.elastic.finished(mig, completed=False)

    def _transfer_delay(self, nbytes: int) -> float:
        network = self.rt.cluster.network
        return network.transfer_time(max(nbytes, _CONTROL_MSG_BYTES),
                                     same_machine=False)

    # -- phases ------------------------------------------------------------
    def _phase_snapshot(self, mig: MigrationState) -> None:
        rt = self.rt
        if not self._enter(mig, "snapshot",
                           lambda _sim: self._phase_snapshot(mig)):
            return
        now = rt.sim.now()
        if self.config.full_rehydration:
            # Ablation: no streaming; cut over behind a flush barrier.
            rt.sim.schedule_in(0.0, lambda _sim: self._phase_cutover(mig))
            return
        total = 0
        for stream in mig.streams:
            moved, nbytes = self._export_changed(stream, full=True)
            total += nbytes
            self.counters.snapshot_slates += moved
            self.counters.snapshot_bytes += nbytes
            self._span(now, phase="snapshot", mig=mig, donor=stream.donor,
                       receiver=stream.receiver, slates=moved, bytes=nbytes)
        delay = self._transfer_delay(total)
        rt.sim.schedule_in(delay, lambda _sim: self._phase_delta(mig))

    def _phase_delta(self, mig: MigrationState) -> None:
        rt = self.rt
        if not self._enter(mig, "delta_stream",
                           lambda _sim: self._phase_delta(mig)):
            return
        now = rt.sim.now()
        mig.rounds += 1
        self.counters.delta_rounds += 1
        changed = 0
        total = 0
        for stream in mig.streams:
            moved, nbytes = self._export_changed(stream, full=False)
            changed += moved
            total += nbytes
            self.counters.delta_slates += moved
            self.counters.delta_bytes += nbytes
            if moved:
                self._span(now, phase="delta_stream", mig=mig,
                           donor=stream.donor, receiver=stream.receiver,
                           slates=moved, bytes=nbytes, round=mig.rounds)
        delay = max(self._transfer_delay(total), self.config.delta_round_s)
        if changed <= DELTA_THRESHOLD or mig.rounds >= MAX_DELTA_ROUNDS:
            rt.sim.schedule_in(delay, lambda _sim: self._phase_cutover(mig))
        else:
            rt.sim.schedule_in(delay, lambda _sim: self._phase_delta(mig))

    def _export_changed(self, stream: HandoffStream,
                        full: bool) -> Tuple[int, int]:
        """Export (re-)changed slates from the donor into the stage.

        ``full=True`` exports everything resident; otherwise only slates
        whose version moved past the last export. Slates evicted since
        planning are skipped — the store already holds their freshest
        flushed state and the receiver rehydrates them lazily.
        """
        mgr = self.rt.machines[stream.donor].central_mgr
        moved = 0
        nbytes = 0
        for slate_key in stream.keys:
            slate = mgr.cache.peek(slate_key)
            if slate is None:
                continue
            version = slate.version
            if not full and stream.exported_versions.get(slate_key) == version:
                continue
            blob = slate.encoded_with(mgr.codec)
            stream.staged[slate_key] = _Staged(
                blob=blob, ttl=slate.ttl,
                last_update_ts=slate.last_update_ts)
            stream.exported_versions[slate_key] = version
            moved += 1
            nbytes += len(blob)
        return moved, nbytes

    def _phase_cutover(self, mig: MigrationState) -> None:
        """The atomic flip: final deltas, install, re-ring, re-address.

        Everything here happens at one simulated instant — no event can
        be delivered mid-cutover, which is what makes the phase
        all-or-nothing without a stop-the-world pause before it. The
        byte cost of the final delta is charged to the ack delay.
        """
        rt = self.rt
        if not self._enter(mig, "cutover",
                           lambda _sim: self._phase_cutover(mig)):
            return
        now = rt.sim.now()
        rt._flush_batches()
        moved = final_bytes = 0
        full = self.config.full_rehydration
        if not full:
            for stream in mig.streams:
                changed, nbytes = self._export_changed(stream, full=False)
                final_bytes += nbytes
                self.counters.cutover_slates += changed
                self.counters.cutover_bytes += nbytes
            moved = self._install_and_drop(mig)
        mig.final_bytes = final_bytes

        def flipped() -> None:
            nonlocal moved
            if full:
                moved = self._drop_flushed_copies(mig)
            # readdress() already counts into journal stats; mirror into
            # the migration family so bench E24 sees it.
            self.counters.journal_readdressed += self.elastic.cutover(mig)
            # Handoff spans come *after* the ``ring_change`` span, so the
            # invariant checker's new ring epoch sees them as its
            # opening ownership facts.
            self._emit_handoffs(now, mig)

        # The ablation cuts over behind the cluster-wide flush barrier.
        rt._change_ring(mig.kind, rt.machines[mig.machine], flush=full,
                        before_reroute=flipped)
        self._span(now, phase="cutover", mig=mig, slates=moved,
                   bytes=final_bytes)
        delay = self._transfer_delay(final_bytes)
        rt.sim.schedule_in(delay, lambda _sim: self._phase_ack(mig))

    def _install_and_drop(self, mig: MigrationState) -> int:
        """Install staged blobs at receivers; drop the donor's copies.

        Imported slates land *dirty*: the receiver's ordinary flush
        machinery persists them (the explicit catch-up happens at ack),
        and the dedup watermarks inside each blob arm the receiver
        against replays of updates the donor already applied.
        """
        rt = self.rt
        now = rt.sim.now()
        moved = 0
        for stream in mig.streams:
            receiver_mgr = rt.machines[stream.receiver].central_mgr
            donor_mgr = rt.machines[stream.donor].central_mgr
            for slate_key in stream.keys:
                staged = stream.staged.get(slate_key)
                if staged is not None:
                    receiver_mgr.import_blob(
                        slate_key, staged.blob, ttl=staged.ttl,
                        last_update_ts=staged.last_update_ts, now=now)
                    moved += 1
                donor_mgr.drop(slate_key)
            stream.staged.clear()
        self.counters.handoff_slates += moved
        return moved

    def _drop_flushed_copies(self, mig: MigrationState) -> int:
        """Ablation cutover: cluster-wide flush barrier, drop, lazy reads.

        This is the paper's Section 4.3 re-admission strategy applied to
        a planned change: every dirty slate in the cluster has just
        flushed (the ring change took the barrier), the donor drops its
        (now clean) moving copies, and the receiver pays a cold kv read
        per slate on first touch. The network bytes
        the strategy moves for the moving set are counted so bench E24
        can compare them against the incremental stream: each barrier
        write fans out to every kv replica, and the receiver's cold
        read adds one more transfer — against the incremental handoff's
        single donor→receiver copy per (version of a) slate.
        """
        replicas = getattr(self.rt.store, "replication_factor", 1)
        moved = 0
        for stream in mig.streams:
            donor_mgr = self.rt.machines[stream.donor].central_mgr
            for slate_key in stream.keys:
                slate = donor_mgr.cache.peek(slate_key)
                if slate is None:
                    continue
                nbytes = len(slate.encoded_with(donor_mgr.codec))
                self.counters.full_barrier_bytes += nbytes * (replicas + 1)
                self.counters.full_barrier_slates += 1
                donor_mgr.drop(slate_key)
                moved += 1
            stream.staged.clear()
        return moved

    def _emit_handoffs(self, now: float, mig: MigrationState) -> None:
        """Per-slate ownership-transfer spans."""
        tracer = self.rt.tracer
        if tracer is None:
            return
        for stream in mig.streams:
            for slate_key in stream.keys:
                tracer.emit(now, "handoff", updater=slate_key.updater,
                            key=slate_key.key, src=stream.donor,
                            machine=stream.receiver, epoch=mig.epoch)

    def _phase_ack(self, mig: MigrationState) -> None:
        rt = self.rt
        if not self._enter(mig, "ack", lambda _sim: self._phase_ack(mig)):
            return
        now = rt.sim.now()
        for receiver in mig.receivers():
            machine = rt.machines[receiver]
            if not machine.alive:
                # Receiver died between cutover and ack: declare it to
                # the master *now* so exclusion + journal replay (the
                # entries are still under this migration's hold) heal
                # the handed-off keys deterministically.
                rt._declare_machine_failed(receiver)
                continue
            machine.central_mgr.flush_all_dirty()
        self._span(now, phase="ack", mig=mig)
        delay = self._transfer_delay(_CONTROL_MSG_BYTES)
        rt.sim.schedule_in(delay, lambda _sim: self._phase_release(mig))

    def _phase_release(self, mig: MigrationState) -> None:
        rt = self.rt
        if not self._enter(mig, "release",
                           lambda _sim: self._phase_release(mig)):
            return
        now = rt.sim.now()
        journal = rt.replay_journal
        if journal is not None:
            journal.release(mig.token)
        rt.master.complete_migration(mig.epoch)
        self.counters.completed += 1
        self._span(now, phase="release", mig=mig)
        self.active = None
        self.elastic.finished(mig, completed=True)
