"""Event replay — the paper's named future work (Section 4.3).

"The event that failed to reach B is lost (and logged as lost) ...
Currently, low latency is far more important ... Developing a replay
capability to recover the lost events is a subject of future work."

This module implements that capability as an opt-in extension: senders
journal recently sent events per destination machine; when the master
broadcasts a machine failure, journal entries destined for the dead
machine within a time horizon are re-sent through the (now rerouted)
ring.

Semantics become **at-least-once** for the horizon window: events that
the dead machine had already processed may be replayed and processed
again, so counting applications can over-count by up to the horizon's
in-flight volume. Without replay, Muppet's native semantics are
at-most-once (bounded loss). Bench E6 quantifies both sides.

A third mode builds on this journal: **effectively-once** delivery
(``SimConfig.delivery_semantics``) keeps the journal *un*-horizoned
(``horizon_s=None``) and instead prunes it at coordinated checkpoint
epochs, after every dirty slate — including its per-upstream dedup
watermarks — has been flushed. Replayed events whose sequence ids fall
at or below a slate's persisted watermark are skipped (counted in
:attr:`ReplayStats.deduped`), so replays become idempotent and counting
applications recover exact totals. Bench E6e compares all three modes.
:class:`EffectivelyOnce` is that mode's engine-side half: the dedup
check, the replay pins and the checkpoint-epoch barrier.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, List,
                    Optional, Tuple)

from repro.errors import ConfigurationError
from repro.obs.registry import CounterFields

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.event import Event
    from repro.core.slate import Slate
    from repro.sim.des import Simulator
    from repro.sim.runtime import SimRuntime, _Envelope, _Machine, _Worker


@dataclass(slots=True)
class ReplayStats(CounterFields):
    """Journal accounting."""

    recorded: int = 0
    pruned: int = 0
    replayed: int = 0
    #: Replayed events skipped by a slate's dedup watermark
    #: (effectively-once delivery only; 0 otherwise).
    deduped: int = 0
    #: Entries re-addressed to a new destination at migration cutover
    #: (live slate handoff; 0 otherwise).
    readdressed: int = 0


class ReplayJournal:
    """A bounded journal of sent events.

    Args:
        horizon_s: How far back replay reaches. Should cover failure
            *detection* time plus queueing delay on the dead machine;
            longer horizons recover more but duplicate more. ``None``
            disables time-based pruning entirely — the effectively-once
            mode, where the runtime prunes at checkpoint epochs via
            :meth:`prune_before` instead.
        max_entries: Hard memory bound; oldest entries drop first. Under
            effectively-once this bound should comfortably exceed one
            epoch of sends: an evicted entry can no longer be replayed,
            which degrades exactness back to at-most-once for it.
    """

    def __init__(self, horizon_s: Optional[float] = 0.25,
                 max_entries: int = 200_000) -> None:
        if horizon_s is not None and horizon_s <= 0:
            raise ConfigurationError(
                "horizon_s must be positive (or None for epoch-pruned "
                "journals)")
        if max_entries < 1:
            raise ConfigurationError("max_entries must be >= 1")
        self.horizon_s = horizon_s
        self.max_entries = max_entries
        #: (sent_at, destination machine, payload) in send order.
        self._entries: Deque[Tuple[float, str, Any]] = deque()
        #: Migration holds: token -> earliest timestamp that must stay
        #: replayable. While any hold is active, pruning (horizon- or
        #: epoch-based) cannot advance past the oldest held timestamp.
        self._holds: Dict[str, float] = {}
        self.stats = ReplayStats()

    @classmethod
    def epoch_pruned(cls, max_entries: int = 200_000) -> "ReplayJournal":
        """A journal with no time horizon, pruned only at checkpoint
        epochs (the effectively-once configuration)."""
        return cls(horizon_s=None, max_entries=max_entries)

    def record(self, dest_machine: str, payload: Any,
               now: float) -> None:  # hot-path
        """Journal one sent event."""
        if self.horizon_s is not None:
            self._prune(now)
        entries = self._entries
        if len(entries) >= self.max_entries:
            entries.popleft()
            self.stats.pruned += 1
        entries.append((now, dest_machine, payload))
        self.stats.recorded += 1

    def _prune(self, now: float) -> None:
        if self.horizon_s is None:
            return
        cutoff = self._clamp_to_holds(now - self.horizon_s)
        while self._entries and self._entries[0][0] < cutoff:
            self._entries.popleft()
            self.stats.pruned += 1

    def _clamp_to_holds(self, cutoff: float) -> float:
        """Cap a prune cutoff at the oldest active migration hold."""
        if self._holds:
            cutoff = min(cutoff, min(self._holds.values()))
        return cutoff

    # -- migration holds (elastic scaling) --------------------------------
    def hold(self, token: str, since_ts: float) -> None:
        """Pin entries recorded at or after ``since_ts`` against pruning.

        Taken at migration plan time and released after the receiver's
        ack. Between cutover and that ack, the freshest state of every
        handed-off slate lives only in the receiver's cache, so the
        journaled updates covering it must outlive any checkpoint-epoch
        prune that fires mid-migration — otherwise a receiver crash in
        that window would lose updates the donor had already applied
        (the prune-too-early window). Re-holding an existing token
        keeps the earlier timestamp.
        """
        existing = self._holds.get(token)
        if existing is None or since_ts < existing:
            self._holds[token] = since_ts

    def release(self, token: str) -> None:
        """Drop a migration hold; idempotent for unknown tokens."""
        self._holds.pop(token, None)

    def readdress(self, resolve: Callable[[str, Any], Optional[str]]) -> int:
        """Rewrite entry destinations at migration cutover.

        ``resolve(dest_machine, payload)`` returns the new destination
        for an entry, or ``None`` to leave it unchanged. The cutover
        passes a ring-lookup closure, so journaled events whose keys
        just changed owner replay to the *new* owner: a later crash of
        that receiver replays exactly the updates whose effects rode the
        migrated blobs, and the blobs' dedup watermarks make re-applying
        them idempotent. Returns the number of entries rewritten.
        """
        changed = 0
        rewritten: Deque[Tuple[float, str, Any]] = deque()
        for sent_at, machine, payload in self._entries:
            new_dest = resolve(machine, payload)
            if new_dest is not None and new_dest != machine:
                rewritten.append((sent_at, new_dest, payload))
                changed += 1
            else:
                rewritten.append((sent_at, machine, payload))
        self._entries = rewritten
        self.stats.readdressed += changed
        return changed

    def prune_before(self, cutoff: float) -> int:
        """Drop every entry recorded strictly before ``cutoff``.

        The checkpoint-epoch hook: once a coordinated flush barrier has
        persisted every slate (and its watermarks), entries old enough
        that their effects are certainly covered by that barrier can be
        forgotten — this is what bounds journal memory without a time
        horizon. Returns the number of entries dropped.

        Migration-aware: the cutoff is clamped to the oldest active
        :meth:`hold`, so checkpoint epochs that complete while a handoff
        is in flight retain every entry the handoff may still need.
        """
        cutoff = self._clamp_to_holds(cutoff)
        dropped = 0
        while self._entries and self._entries[0][0] < cutoff:
            self._entries.popleft()
            dropped += 1
        self.stats.pruned += dropped
        return dropped

    def take_for(self, dest_machine: str, now: float) -> List[Any]:
        """Remove and return journaled payloads sent to ``dest_machine``
        within the horizon (oldest first)."""
        self._prune(now)
        kept: Deque[Tuple[float, str, Any]] = deque()
        replayable: List[Any] = []
        for sent_at, machine, payload in self._entries:
            if machine == dest_machine:
                replayable.append(payload)
            else:
                kept.append((sent_at, machine, payload))
        self._entries = kept
        self.stats.replayed += len(replayable)
        return replayable

    def __len__(self) -> int:
        return len(self._entries)


class EffectivelyOnce:
    """Effectively-once delivery on the simulated engine.

    Built only for that mode. It owns the epoch-pruned journal and what
    makes replaying from it idempotent: the watermark check a replayed
    event takes before it re-applies, the pins that keep a queued
    replay ahead of fresh same-key events, and the periodic
    flush-then-prune barrier. ``pin_replays`` says whether delivery may
    spill a key to a second worker (the 2.0 two-choice dispatcher), so
    that queued replays must pin it; with one owning worker per key
    (1.0) there is nothing to pin.
    """

    def __init__(self, rt: "SimRuntime", pin_replays: bool) -> None:
        self.rt = rt
        self.journal = ReplayJournal.epoch_pruned()
        self.pin_replays = pin_replays
        #: Replayed events that applied (their effects died in a crash).
        self.reapplied = 0
        #: Journal entries dropped at checkpoint epochs.
        self.epoch_pruned = 0
        #: Runtime-local identities for timer firings (see
        #: ``SimRuntime._schedule_timer``).
        self.timer_ids = itertools.count(1)
        #: Recent checkpoint-barrier times; epoch k prunes journal
        #: entries recorded before tick[k-2] (two periods of slack for
        #: effects still in flight or queued at the barrier).
        self._epoch_ticks: Deque[float] = deque(maxlen=3)

    def skips(self, machine: "_Machine", fn: str, event: "Event",
              slate: "Slate") -> bool:
        """Check one replayed event against the slate's watermark; True
        when its effect is already there."""
        origin, oseq = event.provenance()
        skip = oseq <= slate.watermark(origin)
        if skip:
            # The slate already durably contains this event's effect
            # (the watermark persisted with the fields that include
            # it): skip the re-application. The slate read was still
            # paid for — dedup is not free.
            self.journal.stats.deduped += 1
        else:
            self.reapplied += 1
        trace = self.rt.tracer
        if trace is not None:
            trace.emit(self.rt.sim.now(), "dedup", machine=machine.name,
                       op=fn, key=event.key, origin=origin, oseq=oseq,
                       decision="skip" if skip else "reapply")
        return skip

    def pin(self, machine: "_Machine", worker: "_Worker",
            envelope: "_Envelope") -> None:
        """Count one more queued replay for its (key, fn) on ``worker``
        (see ``_Machine.replay_pins``)."""
        pin_key = (envelope.event.key, envelope.dest_fn)
        pin = machine.replay_pins.get(pin_key)
        if pin is None:
            machine.replay_pins[pin_key] = [worker, 1]
        else:
            pin[1] += 1

    def unpin(self, machine: "_Machine", item: Tuple[str, str]) -> None:
        """A queued replay for ``item`` starts executing. After the last
        one, the dispatcher's processing-affinity rule covers the rest
        of the window (``worker.current == item`` until ``_finish``)."""
        pin = machine.replay_pins.get(item)
        if pin is not None:
            pin[1] -= 1
            if pin[1] <= 0:
                del machine.replay_pins[item]

    def schedule(self) -> None:
        """Arm the periodic checkpoint-epoch barrier."""
        def tick(sim: "Simulator") -> None:
            self.checkpoint(sim.now())

        self.rt.sim.every(self.rt.config.checkpoint_epoch_s, tick)

    def checkpoint(self, now: float) -> None:
        """One coordinated flush-then-prune barrier.

        Reuses the rebalance flush barrier: every live machine's dirty
        slates — watermarks embedded in the same blob — go to the
        kv-store, buffered batches are forced onto the wire first so
        nothing sits in a coalescing buffer across the barrier. The
        master counts the epoch; then journal entries recorded before
        the barrier *two epochs ago* are pruned. The two-epoch lag
        covers effects still in flight or queued at a barrier: an entry
        sent before tick[k-2] has been applied (or replayed) and
        flushed by tick[k-1], provided delivery + queueing latency stays
        under one epoch period. A backlog deeper than one period is the
        residual hazard — a pruned entry can no longer be replayed,
        degrading that event to at-most-once.
        """
        rt = self.rt
        rt._flush_batches()
        rt._rebalance_flush()
        rt.master.coordinate_epoch()
        self._epoch_ticks.append(now)
        if len(self._epoch_ticks) == 3:
            self.epoch_pruned += self.journal.prune_before(
                self._epoch_ticks[0])
