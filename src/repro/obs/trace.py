"""Structured event tracing: span records, sinks, and chain rebuilding.

With ``SimConfig.trace`` on, the simulated engine emits one *span record*
at every station an event passes through — source injection, dispatch,
enqueue, map/update execution, slate read/flush, kv replica write, batch
flush, replay-dedup decisions — each carrying the event's replay-stable
``(origin, oseq)`` provenance (see :meth:`repro.core.event.Event.
provenance`). Because the provenance survives operator hops (derived
events chain their parent's identity), a single source event's complete
path through the workflow graph can be reconstructed from the trace with
:func:`reconstruct_chain`.

Tracing is strictly passive: sinks never schedule simulator events or
mutate engine state, so an enabled trace changes *nothing* about the
simulated outcome — the no-op contract tests assert byte-identical
counters and slates with tracing on and off. With tracing off the engines
hold ``None`` instead of a tracer and every emission site is a single
``is not None`` check; the overhead bench measures that guard at well
under the 2% budget.

Span record schema (one JSON object per line in the JSONL sink)::

    {"ts": <simulated seconds>, "kind": <station>, ...station fields}

Station kinds and their fields:

* ``source``   — ``sid, key, origin, oseq``: M0 injected a source event.
* ``dispatch`` — ``machine, fn, key, worker, origin, oseq``: the
  two-choice (or single-choice) dispatcher picked a worker queue.
* ``enqueue``  — ``machine, fn, key, worker, depth, origin, oseq``: the
  event entered that worker's bounded queue.
* ``execute``  — ``machine, op, op_kind, key, worker, origin, oseq``
  (+``updater, row, column`` for updates): one map/update invocation ran.
* ``publish``  — ``sid, op, ordinal, parent_origin, parent_oseq, origin,
  oseq``: an operator emitted its ``ordinal``-th output event. The
  explicit parent→child provenance edge is what lets
  :func:`reconstruct_chain` cross operator hops in every delivery mode
  (without effectively-once dedup, derived events carry no ``>``-chained
  origin of their own).
* ``dedup``    — ``machine, op, key, origin, oseq, decision``: a
  replayed event hit the slate watermark check (``skip``/``reapply``).
* ``shed``     — ``machine, key, origin, oseq, outcome`` plus ``op``
  (outcome ``thin``) or ``fn`` (other outcomes): the overload machinery
  resolved one delivery. ``thin`` = probabilistically skipped inside
  the updater (kept siblings carry inverse-probability weight);
  ``drop`` = discarded at a full queue; ``divert`` = re-addressed to
  the overflow stream (``proactive`` True when backpressure diverted
  it before the queue filled); ``throttle_retry`` = held for a later
  redelivery while sources pause. The shed-accounting invariant
  (``repro.analysis.invariants``) audits these against executes.
* ``batch_flush`` — ``src, dst, events, trigger``: a coalesced
  data-plane envelope shipped.
* ``slate_read``  — ``updater, key, row, column, hit``: a slate-manager
  store fetch (``hit`` False = initialized fresh).
* ``slate_flush`` — ``updater, key, row, column, batched``: one dirty
  slate persisted.
* ``kv_write`` — ``row, column, replicas, acks``: one replicated cell
  write (batch writes emit one span per cell).
* ``ring_change`` — ``change, machine``: cluster membership changed
  (``exclude`` on failure broadcast, ``restore`` on recovery, ``join``
  on elastic add). The trace invariant checker scopes its two-choice
  and ring-ownership windows between these spans.

``slate_read``/``slate_flush`` spans additionally carry ``machine``
when the emitting slate manager was constructed with an owner (the
simulator always sets one; the threaded engines have no machine name).
"""

from __future__ import annotations

import json
from collections import deque
from typing import IO, Any, Deque, Dict, Iterable, List, Optional, Union

from repro.errors import ConfigurationError

#: One span record. Plain dicts keep emission allocation-cheap and make
#: every sink (ring, JSONL, tests) share one representation.
Span = Dict[str, Any]


class Tracer:
    """Base tracer: collects span records; subclasses choose retention."""

    def emit(self, ts: float, kind: str, **fields: Any) -> None:
        """Record one span at simulated time ``ts``."""
        span: Span = {"ts": ts, "kind": kind}
        span.update(fields)
        self._store(span)

    def _store(self, span: Span) -> None:
        raise NotImplementedError

    def spans(self) -> List[Span]:
        """Everything retained, in emission order."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release sink resources (no-op by default)."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class RingTracer(Tracer):
    """In-memory sink keeping the most recent ``capacity`` spans.

    The bounded deque makes long chaos runs safe to trace: memory is
    O(capacity), and the tail of the run — where recovery and replay
    happen — is what debugging usually needs.
    """

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity < 1:
            raise ConfigurationError(f"ring capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._ring: Deque[Span] = deque(maxlen=capacity)

    def _store(self, span: Span) -> None:
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(span)

    def spans(self) -> List[Span]:
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)


class JsonlTracer(Tracer):
    """File sink writing one JSON object per line (read it back with
    :func:`read_jsonl`; it keeps no spans in memory).

    Args:
        path_or_file: Output path, or an open text file (tests pass
            ``io.StringIO``). Paths are opened lazily on first span.
    """

    def __init__(self, path_or_file: Union[str, IO[str]]) -> None:
        self._path: Optional[str] = None
        self._file: Optional[IO[str]] = None
        if isinstance(path_or_file, str):
            self._path = path_or_file
        else:
            self._file = path_or_file
        self._owns_file = self._file is None
        self.written = 0

    def _store(self, span: Span) -> None:
        if self._file is None:
            assert self._path is not None
            self._file = open(self._path, "w", encoding="utf-8")
        self._file.write(json.dumps(span, sort_keys=True, default=repr))
        self._file.write("\n")
        self.written += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            if self._owns_file:
                self._file.close()
                self._file = None


def read_jsonl(path: str) -> List[Span]:
    """Load a JSONL trace file back into span dicts."""
    spans: List[Span] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def reconstruct_chain(spans: Iterable[Span], origin: str, oseq: int) -> List[Span]:
    """Rebuild one event's full path from a trace.

    The chain starts with every span that carries the event's own
    ``(origin, oseq)`` provenance — source injection, dispatches,
    enqueues, executions, dedup decisions — *plus* the spans of events
    derived from it downstream, found by following the parent→child
    edges that ``publish`` spans record (the simulator, the one engine
    that traces, emits one per published event in every delivery
    mode). It is then extended through the state layers by
    joining on the slate address: the first ``slate_flush`` of a slate
    this event's update touched that happens at-or-after the update, and
    the first ``kv_write`` of that slate's ``(row, column)`` cell
    at-or-after the flush. Returns the chain in time order (ties keep
    emission order).
    """
    ordered = list(spans)
    # Identities reachable from the root via publish parent→child edges.
    children: Dict[tuple, List[tuple]] = {}
    for span in ordered:
        if span.get("kind") == "publish":
            parent = (span.get("parent_origin"), span.get("parent_oseq"))
            children.setdefault(parent, []).append(
                (span.get("origin"), span.get("oseq"))
            )
    reached = {(origin, oseq)}
    frontier = [(origin, oseq)]
    while frontier:
        for child in children.get(frontier.pop(), ()):
            if child not in reached:
                reached.add(child)
                frontier.append(child)
    chain: List[Span] = []
    for span in ordered:
        span_origin = span.get("origin")
        if span_origin is not None and (span_origin, span.get("oseq")) in reached:
            chain.append(span)
    # Join through the state layers: updates name the slate cell they
    # touched; flushes and kv writes name the same cell.
    for update in [s for s in chain if s.get("kind") == "execute" and "row" in s]:
        flush = _first_at_or_after(
            ordered,
            "slate_flush",
            update["ts"],
            row=update["row"],
            column=update["column"],
        )
        if flush is None:
            continue
        if flush not in chain:
            chain.append(flush)
        write = _first_at_or_after(
            ordered, "kv_write", flush["ts"], row=flush["row"], column=flush["column"]
        )
        if write is not None and write not in chain:
            chain.append(write)
    indexed = {id(span): i for i, span in enumerate(ordered)}
    chain.sort(key=lambda span: (span["ts"], indexed.get(id(span), 0)))
    return chain


def _first_at_or_after(
    spans: List[Span], kind: str, ts: float, **match: Any
) -> Optional[Span]:
    for span in spans:
        if span.get("kind") != kind or span["ts"] < ts:
            continue
        if all(span.get(field) == value for field, value in match.items()):
            return span
    return None
