"""Trace invariant checking: replay a span trace, assert the guarantees.

The observability layer records every station an event passes through
(see :mod:`repro.obs.trace`). This module replays such a trace and
checks the structural guarantees the engine claims, so a chaos run can
*prove* — not just not-crash — that:

* **fifo** — each worker queue executes events in enqueue order.
  Envelopes may vanish between enqueue and execute (dropped on
  overflow, lost to a crash, drained and rerouted after a ring change);
  what must never happen is an *inversion*: two events enqueued on the
  same queue executing in the opposite order.
* **watermarks** — per-origin source sequence numbers are strictly
  increasing, and every replay-dedup ``skip`` is justified: some
  earlier *applied* update of the same ``(op, key, origin)`` carried an
  ``oseq`` at or above the skipped one (that is what advanced the slate
  watermark the skip consulted). A skip nothing covers means dedup
  dropped a live event — effectively-once silently lost data.
* **two_choice** — between ring changes, one ``(fn, key)`` lands on at
  most 2 worker queues per machine (Section 4.5's "at most two threads
  may process events of the same key at the same time").
* **ring_ownership** — between ring changes, each slate ``(updater,
  key)`` is flushed by at most one machine. Two flushers for one slate
  means an orphaned cache copy raced the owner through last-write-wins.
  Effectively-once traces must satisfy this strictly (late in-flight
  events re-route to the owner); at-most-once traces may legitimately
  report the bounded in-flight residual documented in DESIGN.md.
* **migration** (opt-in, not part of ``check_all``) — live-handoff
  safety for elastic scaling: each slate ``(updater, key)`` is handed
  to exactly one receiver per migration epoch, and after the cutover's
  ``handoff`` span the donor never executes an update or flushes that
  slate again within the same ring epoch. A second receiver means the
  ledger double-assigned ownership; donor activity after handoff means
  the cutover barrier leaked — either way two machines could apply
  updates to diverging copies of one slate.
* **shed_accounting** (opt-in, not part of ``check_all``) — every
  delivery terminates as exactly one of applied / thinned / dropped /
  diverted, or is throttle-deferred (at least one ``throttle_retry``
  and no hard terminal yet). Valid only for *fault-free, drained*
  traces: a crash legitimately vanishes queued events, and an
  undrained trace legitimately leaves deliveries pending — both would
  read as losses here. Overload runs (bench E22) use it to prove that
  shedding never silently loses an event: whatever the pressure tier
  did to an event, it is visible and counted in the trace.

A checker needs a complete window: ring-buffer traces that *dropped*
early spans can report spurious executes-without-enqueue or uncovered
skips, or hide real ones. :func:`check_trace` refuses a tracer whose
ring dropped spans; size the ring to the run or use a JSONL sink.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Deque, Dict, Iterable, List, Optional, Set, Tuple,
                    Union)

from repro.core.operators import TIMER_SID_PREFIX
from repro.errors import AnalysisError
from repro.obs.trace import Span, Tracer, read_jsonl, reconstruct_chain

__all__ = ["InvariantChecker", "InvariantViolation", "check_trace"]

#: Provenance identity as spans carry it.
_Prov = Tuple[Any, Any]


@dataclass
class InvariantViolation:
    """One broken invariant, anchored to the span that broke it."""

    invariant: str
    message: str
    span: Optional[Span] = None
    #: The full station chain of the offending event (populated for the
    #: first violation of each invariant via ``reconstruct_chain``).
    chain: List[Span] = field(default_factory=list)

    def format(self) -> str:
        lines = [f"[{self.invariant}] {self.message}"]
        if self.span is not None:
            lines.append(f"  at span: {self.span}")
        if self.chain:
            lines.append(f"  event chain ({len(self.chain)} spans):")
            for span in self.chain:
                lines.append(f"    {span}")
        return "\n".join(lines)


class InvariantChecker:
    """Replay one span trace and check each engine invariant.

    Args:
        spans: The trace, in emission order (as every tracer returns
            it). Each span must be a dict with ``ts`` and ``kind``.
    """

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans: List[Span] = list(spans)
        for i, span in enumerate(self.spans):
            if not isinstance(span, dict) or "kind" not in span or \
                    "ts" not in span:
                raise AnalysisError(
                    f"malformed trace: span #{i} is not a dict with "
                    f"'ts' and 'kind' fields: {span!r}")
        #: Ring epoch of each span: starts at 0, +1 at every
        #: ``ring_change`` (the change span begins the new epoch; spans
        #: emitted before it — e.g. the rebalance-barrier flushes —
        #: belong to the old one).
        self._epochs: List[int] = []
        epoch = 0
        for span in self.spans:
            if span["kind"] == "ring_change":
                epoch += 1
            self._epochs.append(epoch)

    # -- invariants ----------------------------------------------------------
    def check_fifo(self) -> List[InvariantViolation]:
        """No inversion between enqueue order and execute order."""
        violations: List[InvariantViolation] = []
        queues: Dict[Tuple[Any, Any], Deque[_Prov]] = {}
        for span in self.spans:
            kind = span["kind"]
            if kind not in ("enqueue", "execute"):
                continue
            prov = (span.get("origin"), span.get("oseq"))
            if kind == "enqueue":
                queue_id = (span.get("machine"), span.get("worker"))
                queues.setdefault(queue_id, deque()).append(prov)
                continue
            queue_id = (span.get("machine"), span.get("worker"))
            queue = queues.get(queue_id)
            if queue is None or prov not in queue:
                violations.append(InvariantViolation(
                    "fifo",
                    f"execute of {prov} on queue {queue_id} without a "
                    "pending enqueue — either an inversion (a later "
                    "event already consumed this slot) or a truncated "
                    "trace", span))
                continue
            # Events ahead of this one may have been dropped, lost, or
            # rerouted; popping them is tolerated. Executing *behind*
            # them is what the `prov not in queue` branch catches, when
            # their own execute arrives and finds its slot consumed.
            while queue:
                head = queue.popleft()
                if head == prov:
                    break
        return self._attach_chain(violations)

    def check_watermarks(self) -> List[InvariantViolation]:
        """Source oseq monotone per origin; every dedup skip covered."""
        violations: List[InvariantViolation] = []
        last_oseq: Dict[Any, Any] = {}
        for span in self.spans:
            if span["kind"] != "source":
                continue
            origin, oseq = span.get("origin"), span.get("oseq")
            previous = last_oseq.get(origin)
            if previous is not None and oseq <= previous:
                violations.append(InvariantViolation(
                    "watermarks",
                    f"source oseq for origin {origin!r} went "
                    f"{previous} -> {oseq}; per-origin sequence numbers "
                    "must be strictly increasing (replay-stable "
                    "provenance)", span))
            last_oseq[origin] = oseq

        # Dedup coverage. An execute is "applied" unless a skip decision
        # for the same provenance follows it (the execute span is
        # emitted before the watermark check of the same delivery).
        updates: Dict[Tuple[Any, Any, Any], List[List[Any]]] = {}
        skips: List[Tuple[int, Span]] = []
        for index, span in enumerate(self.spans):
            kind = span["kind"]
            if (kind == "execute" and span.get("op_kind") == "update"
                    and not span.get("timer", False)):
                state = (span.get("op"), span.get("key"),
                         span.get("origin"))
                updates.setdefault(state, []).append(
                    [index, span.get("oseq"), True])
            elif kind == "dedup" and span.get("decision") == "skip":
                state = (span.get("op"), span.get("key"),
                         span.get("origin"))
                oseq = span.get("oseq")
                for entry in reversed(updates.get(state, ())):
                    if entry[0] < index and entry[1] == oseq and entry[2]:
                        entry[2] = False  # this execute was skipped
                        break
                skips.append((index, span))
        for skip_index, span in skips:
            state = (span.get("op"), span.get("key"), span.get("origin"))
            oseq = span.get("oseq")
            covered = any(
                entry[0] < skip_index and entry[2] and entry[1] is not None
                and oseq is not None and entry[1] >= oseq
                for entry in updates.get(state, ()))
            if not covered:
                violations.append(InvariantViolation(
                    "watermarks",
                    f"dedup skipped {state} oseq={oseq} but no earlier "
                    "applied update of that (op, key, origin) carries "
                    "oseq >= it — the watermark that justified the skip "
                    "has no visible writer (lost event, or truncated "
                    "trace)", span))
        return self._attach_chain(violations)

    def check_two_choice(self) -> List[InvariantViolation]:
        """≤ 2 worker queues per (fn, key, machine, epoch): two-choice
        dispatch offers each key its primary and one secondary."""
        violations: List[InvariantViolation] = []
        targets: Dict[Tuple[Any, Any, Any, int], Set[Any]] = {}
        flagged: Set[Tuple[Any, Any, Any, int]] = set()
        for index, span in enumerate(self.spans):
            if span["kind"] != "enqueue":
                continue
            window = (span.get("fn"), span.get("key"),
                      span.get("machine"), self._epochs[index])
            workers = targets.setdefault(window, set())
            workers.add(span.get("worker"))
            if len(workers) > 2 and window not in flagged:
                flagged.add(window)
                fn, key, machine, epoch = window
                violations.append(InvariantViolation(
                    "two_choice",
                    f"key {key!r} of {fn} hit {len(workers)} distinct "
                    f"queues {sorted(workers)} on {machine} within ring "
                    f"epoch {epoch}; two-choice dispatch bounds it at 2",
                    span))
        return self._attach_chain(violations)

    def check_ring_ownership(self) -> List[InvariantViolation]:
        """One flushing machine per (updater, key) per ring epoch."""
        violations: List[InvariantViolation] = []
        owners: Dict[Tuple[Any, Any, int], Set[Any]] = {}
        flagged: Set[Tuple[Any, Any, int]] = set()
        for index, span in enumerate(self.spans):
            if span["kind"] != "slate_flush" or "machine" not in span:
                continue
            window = (span.get("updater"), span.get("key"),
                      self._epochs[index])
            machines = owners.setdefault(window, set())
            machines.add(span["machine"])
            if len(machines) > 1 and window not in flagged:
                flagged.add(window)
                updater, key, epoch = window
                violations.append(InvariantViolation(
                    "ring_ownership",
                    f"slate ({updater}, {key!r}) flushed by "
                    f"{sorted(machines)} within ring epoch {epoch}; one "
                    "machine owns a slate between ring changes — a "
                    "second flusher is an orphaned cache copy racing "
                    "the owner", span))
        return self._attach_chain(violations)

    def check_shed_accounting(self) -> List[InvariantViolation]:
        """Each delivery ends as exactly one shed/apply outcome.

        Groups spans by ``(origin, oseq, fn)`` — one group per delivery
        of one event to one function. A group's hard terminals are:
        applied executes (``execute`` spans minus paired ``thin`` shed
        spans), thins, drops, and diverts (the diverted copy continues
        under the overflow stream's subscriber functions, forming its
        own groups with the same provenance — that is what the
        provenance pinning in the engines' divert paths guarantees).
        ``throttle_retry`` spans are soft: a group with retries and no
        hard terminal is throttle-deferred, which only a drained trace
        may not contain. Timer deliveries are exempt (their provenance
        is engine-internal).
        """
        violations: List[InvariantViolation] = []
        groups: Dict[Tuple[Any, Any, Any], Dict[str, Any]] = {}
        for span in self.spans:
            kind = span["kind"]
            if kind == "execute":
                if span.get("timer", False):
                    continue
                fn = span.get("op")
            elif kind == "shed":
                fn = span.get("op", span.get("fn"))
            else:
                continue
            origin = span.get("origin")
            if isinstance(origin, str) and origin.startswith(TIMER_SID_PREFIX):
                continue
            key = (origin, span.get("oseq"), fn)
            group = groups.get(key)
            if group is None:
                group = groups[key] = {
                    "executes": 0, "thins": 0, "drops": 0, "diverts": 0,
                    "retries": 0, "span": span}
            if kind == "execute":
                group["executes"] += 1
            else:
                outcome = span.get("outcome")
                if outcome == "thin":
                    group["thins"] += 1
                elif outcome == "drop":
                    group["drops"] += 1
                elif outcome == "divert":
                    group["diverts"] += 1
                elif outcome == "throttle_retry":
                    group["retries"] += 1
        for key in sorted(groups, key=repr):
            origin, oseq, fn = key
            group = groups[key]
            applied = group["executes"] - group["thins"]
            if applied < 0:
                violations.append(InvariantViolation(
                    "shed_accounting",
                    f"delivery ({origin!r}, {oseq}) -> {fn} has "
                    f"{group['thins']} thin decisions but only "
                    f"{group['executes']} executes; every thin pairs "
                    "with the execute it truncated", group["span"]))
                continue
            terminals = (applied + group["thins"] + group["drops"]
                         + group["diverts"])
            if terminals == 0 and group["retries"] == 0:
                violations.append(InvariantViolation(
                    "shed_accounting",
                    f"delivery ({origin!r}, {oseq}) -> {fn} reached a "
                    "queue but terminated as nothing — not applied, "
                    "thinned, dropped, diverted, or throttle-deferred; "
                    "an event silently vanished (or the trace is "
                    "truncated/undrained)", group["span"]))
            elif terminals > 1:
                violations.append(InvariantViolation(
                    "shed_accounting",
                    f"delivery ({origin!r}, {oseq}) -> {fn} terminated "
                    f"{terminals} times (applied={applied}, "
                    f"thinned={group['thins']}, dropped={group['drops']},"
                    f" diverted={group['diverts']}); an event must "
                    "terminate exactly once — a duplicate application "
                    "or double-count", group["span"]))
        return self._attach_chain(violations)

    def check_migration(self) -> List[InvariantViolation]:
        """Live-handoff safety (see the module docstring, opt-in).

        One receiver per ``(updater, key)`` per *migration* epoch (the
        coordinator's counter, carried on every ``handoff`` span), and
        no donor ``execute``/``slate_flush`` of a handed-off slate
        within the *ring* epoch the cutover opened. A later ring change
        may legitimately hand the slate back, so donor activity is only
        policed until the next ``ring_change`` span.
        """
        violations: List[InvariantViolation] = []
        # (updater, key, migration epoch) -> receiver machines seen.
        owners: Dict[Tuple[Any, Any, Any], Set[Any]] = {}
        flagged: Set[Tuple[Any, Any, Any]] = set()
        # (updater, key, ring epoch) -> the donor that released it.
        released: Dict[Tuple[Any, Any, int], Any] = {}
        for index, span in enumerate(self.spans):
            kind = span["kind"]
            if kind == "handoff":
                owner_key = (span.get("updater"), span.get("key"),
                             span.get("epoch"))
                receivers = owners.setdefault(owner_key, set())
                receivers.add(span.get("machine"))
                if len(receivers) > 1 and owner_key not in flagged:
                    flagged.add(owner_key)
                    updater, key, epoch = owner_key
                    violations.append(InvariantViolation(
                        "migration",
                        f"slate ({updater}, {key!r}) handed to "
                        f"{sorted(receivers)} within migration epoch "
                        f"{epoch}; the ledger assigns exactly one "
                        "receiver per slate per migration", span))
                released[(span.get("updater"), span.get("key"),
                          self._epochs[index])] = span.get("src")
                continue
            if (kind == "execute" and span.get("op_kind") == "update"
                    and not span.get("timer", False)):
                slate = (span.get("op"), span.get("key"),
                         self._epochs[index])
                verb = "executed an update on"
            elif kind == "slate_flush":
                slate = (span.get("updater"), span.get("key"),
                         self._epochs[index])
                verb = "flushed"
            else:
                continue
            donor = released.get(slate)
            if donor is not None and span.get("machine") == donor:
                updater, key, _ = slate
                violations.append(InvariantViolation(
                    "migration",
                    f"donor {donor} {verb} slate ({updater}, {key!r}) "
                    "after handing it off at cutover; the migration "
                    "epoch barrier must fence the donor until the next "
                    "ring change", span))
        return self._attach_chain(violations)

    def check_all(self) -> List[InvariantViolation]:
        """Run every invariant; violations in check order."""
        violations: List[InvariantViolation] = []
        violations.extend(self.check_fifo())
        violations.extend(self.check_watermarks())
        violations.extend(self.check_two_choice())
        violations.extend(self.check_ring_ownership())
        return violations

    # -- helpers ---------------------------------------------------------------
    def _attach_chain(self, violations: List[InvariantViolation]
                      ) -> List[InvariantViolation]:
        """Attach the full station chain to the first violation."""
        for violation in violations[:1]:
            span = violation.span
            if span is None:
                continue
            origin, oseq = span.get("origin"), span.get("oseq")
            if origin is not None and oseq is not None:
                violation.chain = reconstruct_chain(self.spans, origin,
                                                    oseq)
        return violations


def check_trace(trace: Union[str, Tracer, Iterable[Span]],
                checks: Optional[Iterable[str]] = None
                ) -> List[InvariantViolation]:
    """Check a trace given as a JSONL path, a tracer, or span dicts.

    Args:
        trace: Path to a JSONL trace file, a live :class:`Tracer`
            (its retained spans are checked; raises if its ring dropped
            any), or an iterable of spans.
        checks: Subset of invariant names to run (``fifo``,
            ``watermarks``, ``two_choice``, ``ring_ownership``, plus
            opt-in ``shed_accounting`` and ``migration``); the
            ``check_all`` set by default.
    """
    if isinstance(trace, str):
        try:
            spans = read_jsonl(trace)
        except OSError as exc:
            raise AnalysisError(f"cannot read trace {trace!r}: {exc}")
        except ValueError as exc:
            raise AnalysisError(f"trace {trace!r} is not valid JSONL: "
                                f"{exc}")
    elif isinstance(trace, Tracer):
        dropped = getattr(trace, "dropped", 0)
        if dropped:
            raise AnalysisError(
                f"trace ring dropped {dropped} spans; a truncated trace "
                "cannot be invariant-checked — raise trace_capacity")
        spans = trace.spans()
    else:
        spans = list(trace)
    checker = InvariantChecker(spans)
    available = {
        "fifo": checker.check_fifo,
        "watermarks": checker.check_watermarks,
        "two_choice": checker.check_two_choice,
        "ring_ownership": checker.check_ring_ownership,
        # Opt-in (not in check_all): needs a fault-free, drained trace.
        "shed_accounting": checker.check_shed_accounting,
        # Opt-in (not in check_all): meaningful for elastic traces.
        "migration": checker.check_migration,
    }
    if checks is None:
        return checker.check_all()
    violations: List[InvariantViolation] = []
    for name in checks:
        if name not in available:
            raise AnalysisError(
                f"unknown invariant {name!r}; available: "
                f"{', '.join(sorted(available))}")
        violations.extend(available[name]())
    return violations
