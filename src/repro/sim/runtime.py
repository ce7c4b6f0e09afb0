"""SimRuntime: Muppet 1.0 / 2.0 on a simulated cluster (Sections 4, 5).

This is the substitution substrate declared in DESIGN.md: the authors ran
Muppet on a physical cluster of tens of machines; we run the *same
application code* on a discrete-event simulation of such a cluster. Every
map/update invocation actually executes (slates really change), while CPU,
network, and storage time are charged from :class:`~repro.sim.costs.
CostModel`, :class:`~repro.cluster.topology.NetworkSpec`, and the kv-store
device models.

Both engines are implemented on the same scaffolding, differing exactly
where the paper says they differ (Section 4.5):

* **Muppet 1.0** — one worker *process* per (function, machine) slot; each
  worker owns a private slate manager (fragmented caches) and its own copy
  of the operator code; every event pays conductor↔task-processor IPC;
  routing hashes ``<key, function>`` straight to the one owning worker.
* **Muppet 2.0** — a thread pool per machine; any thread runs any
  function; one central slate manager and one shared operator instance per
  machine; incoming events go through the primary/secondary two-choice
  dispatcher; a background I/O thread flushes dirty slates.

Failures follow Section 4.3: senders discover dead machines on contact,
report to the master, and the master broadcast excludes the machine from
the shared hash ring; in-flight and queued events on the dead machine are
lost and counted. Queue overflow follows Sections 4.3/5: drop, divert to an
overflow stream, or source-throttle.

This module is what every run executes — hash to a machine, enqueue,
dispatch, slate cache, background flush (Sections 4.1-4.5) — plus the one
procedure by which ring membership ever changes
(:meth:`SimRuntime._change_ring`). Link batching is part of that path
(its per-link state is :mod:`repro.sim.dataplane`). Each other extension
is one object that lives beside its policy and that the per-event path
reaches through a construction-time boolean cell: effectively-once
delivery (:mod:`repro.muppet.replay`), overload control
(:mod:`repro.shedding.overload`), elastic membership
(:mod:`repro.elastic.controller`) and crash / recovery
(:mod:`repro.faults.driver`). That last one goes beyond the paper, which
leaves recovery "until operator intervention": ``failures`` also accepts a
:class:`repro.faults.FaultSchedule`, a seeded chaos schedule of crashes,
crash-then-recover cycles, network partitions, gray slow-node failures,
probabilistic message drop/delay, and kv-node outages. Recovery is a full
path — master recovery broadcast, ring re-admission behind a rebalance
barrier, lazy slate re-hydration from the replicated kv-store, and
hinted-handoff drain to the revived kv node — with every step counted in
:class:`repro.faults.RobustnessCounters`.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import (Any, Callable, Deque, Dict, Iterable, List, Optional,
                    Set, Tuple, Union)

from repro.cluster.topology import ClusterSpec
from repro.core.application import Application, OperatorSpec
from repro.core.event import ORIGIN_SEQ_STRIDE, Event, EventCounter
from repro.core.operators import Context, Operator, TimerRequest
from repro.core.slate import SlateKey, _json_size_fast
from repro.elastic.controller import ElasticController
from repro.errors import SimulationError, StoreError, WorkerFailedError
from repro.faults.driver import FaultDriver
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.kvstore.cluster import ReplicatedKVStore
from repro.muppet.conductor import IPCAccountant
from repro.muppet.dispatch import (SIGNIFICANT_FACTOR, SingleChoiceDispatcher,
                                   TwoChoiceDispatcher)
from repro.muppet.master import Master
from repro.muppet.queues import BoundedQueue
from repro.muppet.replay import EffectivelyOnce, ReplayJournal
from repro.obs import (LatencyRecorder, MetricsRegistry, RingTracer,
                       TimelineRecorder, Tracer)
from repro.shedding.controller import TIER_OVERFLOW, TIER_THIN
from repro.shedding.overload import THROTTLE_CHECK_S, OverloadControl
from repro.sim.config import ENGINE_MUPPET2, SimConfig
from repro.sim.dataplane import DataPlaneCounters, _Link
from repro.sim.des import ScheduledEvent, Simulator
from repro.sim.membership import MachineRing, WorkerRings
from repro.sim.report import (SimReport, build_report, register_machine_probes,
                              register_metrics)
from repro.sim.sources import Source
from repro.slates.codec import DEFAULT_CODEC, split_watermarks
from repro.slates.manager import SlateManager

#: Wholesale-clear bound for the per-event path's memo tables (mirrors
#: the hashring memo discipline: bounded table, cleared when full).
_MEMO_MAX = 65_536

#: Replicas per slate cell in the simulated store (slate reads and
#: writes go at ``ConsistencyLevel.ONE``, :class:`SlateManager`'s default).
KV_REPLICATION = 3


@dataclass(slots=True)
class _Envelope:
    """An event in flight, carrying provenance for latency accounting."""

    event: Event
    birth_ts: float
    dest_fn: str
    is_timer: bool = False
    timer_payload: Any = None
    #: Set once the envelope has been diverted to an overflow stream;
    #: a second overflow then drops it (no diversion recursion).
    diverted: bool = False
    #: True for envelopes resurrected from a sender's replay journal
    #: (and for everything an operator derives from one). Only these are
    #: checked against the per-slate dedup watermarks — fresh events
    #: always apply, so late out-of-order fresh delivery is never
    #: mistaken for a duplicate.
    replayed: bool = False


class _Worker:
    """One execution slot: a 1.0 worker process or a 2.0 thread."""

    __slots__ = ("wid", "machine", "index", "function", "queue", "busy",
                 "current", "waiting", "mgr")

    def __init__(self, wid: str, machine: "_Machine", index: int,
                 function: Optional[str], queue_capacity: int,
                 mgr: SlateManager) -> None:
        self.wid = wid
        self.machine = machine
        self.index = index
        self.function = function          # None => any function (2.0)
        self.queue: BoundedQueue[_Envelope] = BoundedQueue(queue_capacity)
        self.busy = False
        self.current: Optional[Tuple[str, str]] = None
        self.waiting = False
        self.mgr = mgr


class _Machine:
    """A simulated cluster machine hosting workers and a kv node."""

    def __init__(self, name: str, cores: int) -> None:
        self.name = name
        self.cores = cores
        self.alive = True
        self.free_cores = cores
        self.waiting: Deque[_Worker] = deque()
        self.workers: List[_Worker] = []
        self.dispatcher: Optional[TwoChoiceDispatcher] = None
        self.shared_instances: Dict[str, Operator] = {}
        self.central_mgr: Optional[SlateManager] = None
        self.device_busy_until = 0.0
        #: Current overload-control pressure tier (0 = normal); written
        #: by the shedding monitor, read on the per-event hot paths.
        self.pressure_tier = 0
        #: Retired by a scale-down: out of the worker ring but kept in
        #: ``SimRuntime.machines`` (probe/report key sets stay stable),
        #: and first in line for re-admission on the next scale-up.
        self.retired = False
        #: Effectively-once replay ordering guard (2.0 engine only).
        #: While replayed envelopes for a (key, fn) sit in a worker's
        #: queue, every same-(key, fn) dispatch must land on that worker:
        #: the two-choice spill rule would otherwise let a *fresh* event
        #: jump to the idle secondary, apply first, and advance the slate
        #: watermark past the still-queued replay — which then gets
        #: dedup-skipped even though its effect was lost in the crash.
        #: Maps (key, fn) -> [worker, queued_replay_count]; empty (zero
        #: cost) whenever no replays are in flight.
        self.replay_pins: Dict[Tuple[str, str], List[Any]] = {}

    def queue_depth_fraction(self) -> float:
        """Worst queue fullness across this machine's workers."""
        worst = 0.0
        for worker in self.workers:
            worst = max(worst, len(worker.queue) / worker.queue.max_size)
        return worst

    def occupy_device(self, now: float, io_s: float) -> float:
        """Queue ``io_s`` seconds of kv I/O behind whatever the
        machine's storage device is already doing; returns when it is
        done."""
        done = max(now, self.device_busy_until) + io_s
        self.device_busy_until = done
        return done


class SimRuntime:
    """Runs one MapUpdate application on a simulated Muppet cluster.

    Args:
        app: A validated application.
        cluster: The machine/network topology to simulate.
        config: Engine and policy knobs.
        sources: External-stream feeds.
        failures: Either the legacy ``[(time_s, machine_name), ...]``
            kill list, or a :class:`repro.faults.FaultSchedule` with the
            full chaos vocabulary (crash/recover, partitions, slow
            nodes, message drop/delay, kv outages).
    """

    def __init__(
        self,
        app: Application,
        cluster: ClusterSpec,
        config: Optional[SimConfig] = None,
        sources: Iterable[Source] = (),
        failures: Union[Iterable[Tuple[float, str]], FaultSchedule] = (),
        tracer: Optional[Tracer] = None,
    ) -> None:
        app.validate()
        self.app = app
        self.cluster = cluster
        self.config = config or SimConfig()
        self.sources = list(sources)
        #: The span sink, or None when tracing is off. Every emission
        #: site guards on ``self._trace is not None`` so the disabled
        #: path costs one attribute test — nothing is allocated, no
        #: span arguments are even built.
        if tracer is not None:
            self._trace: Optional[Tracer] = tracer
        elif self.config.trace:
            self._trace = RingTracer(self.config.trace_capacity)
        else:
            self._trace = None
        self._timeline = (TimelineRecorder() if self.config.timeline
                          else None)
        #: The observability registry: every stats object below is
        #: registered as a live view (see :func:`register_metrics`).
        self.metrics = MetricsRegistry()
        if isinstance(failures, FaultSchedule):
            self.fault_schedule = failures
        else:
            self.fault_schedule = FaultSchedule.from_kill_list(failures)
        injector = FaultInjector(self.fault_schedule)
        #: Interval-rule injector; None when no rule exists so the
        #: per-message hot path stays untouched for fault-free runs.
        self._injector = injector if injector.has_rules() else None
        self.sim = Simulator()
        self.counters = EventCounter()
        self.master = Master()
        self.latency: Dict[str, LatencyRecorder] = {}
        self._known_failed: Set[str] = set()
        self._detection_time: Optional[float] = None
        self._contention_events = 0
        self._max_workers_per_slate = 1
        self._processing_counts: Dict[Tuple[str, str], int] = {}
        self._subs_cache: Dict[str, List[OperatorSpec]] = {}

        self.store = ReplicatedKVStore(
            node_names=cluster.names(),
            replication_factor=KV_REPLICATION,
            clock=self.sim.clock,
            device_overrides={m.name: m.storage for m in cluster.machines},
            memtable_flush_bytes=self.config.kv_memtable_flush_bytes,
            tracer=self._trace,
        )
        # The optional features, each one object beside its policy. A
        # feature that is off is None (or holds no controller), which
        # _compile_handlers turns into one untaken branch.
        #: Link-batching accounting (all zero with batching off); the
        #: batching itself is part of the compiled per-event path.
        self.dataplane = DataPlaneCounters()
        semantics = self.config.delivery_semantics
        self._eo: Optional[EffectivelyOnce] = None
        self.replay_journal: Optional[ReplayJournal] = None
        if semantics == "effectively-once":
            self._eo = EffectivelyOnce(
                self, pin_replays=self.config.engine == ENGINE_MUPPET2)
            self.replay_journal = self._eo.journal
        elif semantics == "at-least-once":
            self.replay_journal = ReplayJournal(self.config.replay_horizon_s)
        self.counters_replayed = 0
        self._overload = OverloadControl(self)
        self._faults = FaultDriver(self)
        #: Elastic scaling: the autoscaler decides, the migration
        #: coordinator executes. Both are None when unconfigured, so
        #: every previously-working configuration runs byte-identically
        #: (no extra simulator events, no new metrics family).
        self._elastic = ElasticController(self, self._faults.kill)
        self._autoscaler = self._elastic.autoscaler
        self._migration = self._elastic.migration
        self._elastic_stats = self._elastic.stats
        self.machines: Dict[str, _Machine] = {}
        for spec in self.cluster.machines:
            self._construct_machine(spec.name, spec.cores)
        #: Who runs ``<key, function>``, for this engine's layout.
        self._membership: Union[MachineRing, WorkerRings] = (
            MachineRing(self.machines)
            if self.config.engine == ENGINE_MUPPET2
            else WorkerRings(self.machines,
                             [s.name for s in self.app.operators()]))
        self._machine_ring = self._membership.ring
        register_metrics(self)
        self._op_specs: Dict[str, OperatorSpec] = {
            s.name: s for s in self.app.operators()}
        self._compile_handlers()

    @property
    def tracer(self) -> Optional[Tracer]:
        """The active span sink, or None when tracing is off."""
        return self._trace

    # -- construction ------------------------------------------------------
    def _new_manager(self, capacity: int,
                     owner: Optional[str] = None) -> SlateManager:
        return SlateManager(
            store=self.store,
            cache_capacity=max(1, capacity),
            flush_policy=self.config.flush_policy,
            clock=self.sim.clock,
            max_slate_bytes=self.config.max_slate_bytes,
            tracer=self._trace,
            owner=owner,
        )

    def _construct_machine(self, name: str, cores: int) -> "_Machine":
        """Build a machine (workers, dispatcher, manager) *without* ring
        membership — the caller admits it to the ring: the seed machines
        at construction, a join at once (legacy join) or at migration
        cutover. Joining machines get no co-located kv node: the store
        ring is fixed at construction, matching the paper's separately
        managed Cassandra cluster.
        """
        machine = _Machine(name, cores)
        cfg = self.config
        if cfg.engine == ENGINE_MUPPET2:
            threads = (cores if cfg.threads_per_machine is None
                       else cfg.threads_per_machine)
            machine.central_mgr = self._new_manager(
                cfg.cache_slates_per_machine, owner=name)
            machine.dispatcher = (TwoChoiceDispatcher(threads)
                                  if cfg.two_choice
                                  else SingleChoiceDispatcher(threads))
            machine.shared_instances = {
                s.name: s.instantiate() for s in self.app.operators()
            }
            for i in range(threads):
                machine.workers.append(_Worker(
                    wid=f"{name}/t{i}", machine=machine,
                    index=i, function=None,
                    queue_capacity=cfg.queue_capacity,
                    mgr=machine.central_mgr))
        else:
            # Muppet 1.0: worker process pairs per function.
            overrides = cfg.workers_per_function or {}
            total = sum(
                overrides.get(s.name,
                              cfg.workers_per_function_per_machine)
                for s in self.app.operators())
            per_worker_cache = max(
                1, cfg.cache_slates_per_machine // max(1, total))
            index = 0
            for op_spec in self.app.operators():
                count = overrides.get(
                    op_spec.name,
                    cfg.workers_per_function_per_machine)
                for j in range(count):
                    worker = _Worker(
                        wid=f"{name}/{op_spec.name}#{j}",
                        machine=machine, index=index,
                        function=op_spec.name,
                        queue_capacity=cfg.queue_capacity,
                        mgr=self._new_manager(per_worker_cache,
                                              owner=name))
                    # Each 1.0 worker loads its own copy of the code.
                    machine.shared_instances[worker.wid] = (
                        op_spec.instantiate())
                    machine.workers.append(worker)
                    index += 1
        self.machines[name] = machine
        if ((self._autoscaler is not None or self._migration is not None)
                and name not in self.cluster.names()):
            # Elastic machines get queue/slate probes like seed machines
            # (whose probes register_metrics adds, in its family order);
            # legacy joins skip this to keep non-elastic metrics snapshots
            # identical to the seed.
            register_machine_probes(self, machine)
        return machine

    # -- top-level run -------------------------------------------------------
    def run(self, duration_s: float) -> SimReport:
        """Simulate ``duration_s`` seconds and summarize the outcome.

        Cyclic garbage collection is deferred for the duration of the
        event loop: the per-event records (tuple events, slotted
        envelopes, heap entries, journal and batch-buffer entries) are
        acyclic and die by refcount, so the collector's generation scans
        are pure overhead mid-run. Collection is re-enabled before the
        report is built, picking up whatever was deferred. This changes
        no simulated state — it only removes wall-clock noise.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._run_events(duration_s)
        finally:
            if collecting:
                gc.enable()
        return self._report(duration_s)

    def ff_summary(self) -> Dict[str, int]:
        """How many steps the trampoline ran inline vs through the heap
        (the name predates the single path; ``bench/`` reads it)."""
        inlined = self.sim.inlined_steps
        return {"inlined_steps": inlined,
                "heap_steps": self.sim.steps - inlined}

    def _run_events(self, duration_s: float) -> None:
        """Schedule sources, faults and background ticks; run the loop."""
        for source in self.sources:
            self._start_source(source)
        self._faults.schedule_points()
        self._schedule_flusher()
        if self.config.heartbeat_s is not None:
            self.sim.every(self.config.heartbeat_s, self._faults.sweep)
        if self._eo is not None:
            self._eo.schedule()
        self._overload.schedule_monitor()
        self._elastic.schedule()
        self.sim.run_until(duration_s)
        self._overload.finish(self.sim.now())

    def _subscribers_of(self, sid: str) -> List[OperatorSpec]:
        """Per-sid subscriber lists, cached (the workflow is immutable
        once the runtime is built; ``Application.subscribers_of`` scans
        every operator per call, far too slow for the per-event path)."""
        subs = self._subs_cache.get(sid)
        if subs is None:
            subs = self._subs_cache[sid] = list(self.app.subscribers_of(sid))
        return subs

    # -- routing and sender-side failure detection --------------------------------
    def _destination_machine(self, envelope: _Envelope) -> Optional[_Machine]:
        """The machine owning the envelope's ``<key, function>`` now, or
        None when every candidate is excluded (the event is then lost)."""
        try:
            return self._membership.owner(envelope.event.key,
                                          envelope.dest_fn)
        except WorkerFailedError:
            return None

    def _handle_dead_destination(self, machine: _Machine,
                                 envelope: _Envelope) -> None:
        """Sender-side failure detection (Section 4.3): the event is lost
        (and logged as lost); the master broadcast then reroutes."""
        self.counters.lost_failure += 1
        if machine.name in self._known_failed:
            return
        latency = self.cluster.network.latency_s

        def broadcast(sim: Simulator) -> None:
            self._declare_machine_failed(machine.name)

        # Report to master (one hop) + broadcast to workers (one hop).
        self.sim.schedule_in(2 * latency, broadcast, priority=-1)

    def _declare_machine_failed(self, machine_name: str) -> None:
        """Master-side failure handling: exclude the machine and replay.

        The body of the Section 4.3 failure broadcast, callable both
        from the deferred sender-detection path and synchronously (the
        migration coordinator declares a receiver dead at ack time —
        the replayable window is still pinned by the migration hold, so
        exclusion + journal replay heal the handed-off keys exactly).
        Idempotent: a machine already known failed is a no-op.
        """
        if machine_name in self._known_failed:
            return
        machine = self.machines[machine_name]
        now = self.sim.now()
        self._known_failed.add(machine_name)
        self.master.report_failure(machine_name)
        # Only the dead machine's keys move, and its queues died with
        # it: nothing queued elsewhere changes owner.
        self._change_ring("exclude", machine, reroute=False)
        failed_at = self._faults.first_failure_at
        if self._detection_time is None and failed_at is not None:
            self._detection_time = now - failed_at
        if self.replay_journal is not None:
            # Section 4.3 future work, implemented: re-send the
            # horizon's worth of events that targeted the dead
            # machine. The ring now routes them to survivors. Under
            # effectively-once the resends are flagged so the
            # receiving updaters check them (and everything derived
            # from them) against their dedup watermarks.
            for lost in self.replay_journal.take_for(machine_name, now):
                self.counters_replayed += 1
                if self._eo is not None:
                    lost.replayed = True
                self._send(lost, None)

    def _overflow(self, machine: _Machine, worker: _Worker,
                  envelope: _Envelope) -> None:
        policy = self.config.overflow
        note_overflow = self._overload.note_overflow
        if policy.kind == "drop" or envelope.diverted:
            self.counters.dropped_overflow += 1
            note_overflow(machine.name, "dropped")
            if self._trace is not None:
                self._trace_envelope("shed", machine, envelope,
                                     outcome="drop")
            return
        if policy.kind == "divert":
            assert policy.overflow_sid is not None
            note_overflow(machine.name, "diverted")
            self._divert(machine, envelope, policy.overflow_sid)
            return
        # throttle: hold the event and retry; the throttle monitor pauses
        # the sources meanwhile, so the queue drains.
        self.counters.throttled += 1
        note_overflow(machine.name, "throttle_retries")
        if self._trace is not None:
            self._trace_envelope("shed", machine, envelope,
                                 outcome="throttle_retry")
        self.sim.schedule_call_in(self.config.retry_delay_s,
                                  self._deliver, machine, envelope)

    def _divert(self, machine: _Machine, envelope: _Envelope,
                overflow_sid: str, proactive: bool = False) -> None:
        """Re-address one envelope to the degraded overflow stream.

        The diverted copy keeps the original's ``(origin, oseq)`` (see
        :meth:`StreamRegistry.divert`), so the effectively-once audit,
        dedup watermarks, and ``ReplayStats`` account for
        diverted-then-reingested events instead of double-counting
        them. The ``replayed`` flag survives diversion for the same
        reason.
        """
        self.counters.diverted_overflow_stream += 1
        stamped = self.app.streams.divert(envelope.event, overflow_sid)
        if self._trace is not None:
            self._trace_envelope("shed", machine, envelope,
                                 outcome="divert", proactive=proactive)
        for spec in self._subscribers_of(overflow_sid):
            self._send(_Envelope(stamped, envelope.birth_ts, spec.name,
                                 diverted=True, replayed=envelope.replayed),
                       machine.name)

    # -- the per-event path ----------------------------------------------------
    def _compile_handlers(self) -> None:
        """Closure-compile inject → send → (batch) → deliver → execute →
        finish.

        This is the only per-event path, link batching included: a
        batched send is buffered inline in ``_send``, and each link's
        ``ship`` (its linger timer too) prices and pushes the coalesced
        envelope the way ``_send`` pushes a solo one. Every per-event
        constant (cost terms, stream sequencers, subscriber tuples,
        network parameters) is a closure cell — one LOAD_DEREF instead
        of an attribute chain — and the dispatcher's memo-hit decision,
        the slate-cache hit, the event-size arithmetic and the slate
        touch are inlined with their stats bookkeeping replicated
        operation for operation. Every other optional feature is one
        construction-time boolean cell (``tracing``, ``dedup``,
        ``shedding``, ``muppet1`` ...) guarding a call into that
        feature's own object — a bound method held in another cell — so
        a disabled feature costs one untaken branch and an enabled one
        runs the same code every other configuration runs. Float
        service-time and delay expressions keep one fixed operand order
        throughout: reports are compared byte for byte.

        ``_deliver`` and ``_finish`` *return* the continuation they end
        on — the started event's ``_finish`` — as a tail
        ``(at, action, args)`` instead of pushing it, and the source
        stepper returns its own wake-up the same way;
        :meth:`Simulator._drain` runs a tail inline when it would have
        been the next pop anyway. The model checker labels heap entries
        by these closures' ``__name__`` (``_deliver``/``_finish``/
        ``_send``/``step``, and ``deliver_all`` / ``<lambda>`` for a
        batch arrival and a linger timer), so the names are part of the
        contract.
        """
        rt = self
        cfg = self.config
        costs = cfg.costs
        clock = self.sim.clock
        heap = self.sim._heap
        sim_seq = self.sim._seq
        counters = self.counters
        pcounts = self._processing_counts
        latency = self.latency
        ring = self._machine_ring
        eo = self._eo
        dataplane = self.dataplane
        overload = self._overload
        injector = self._injector
        streams = self.app.streams
        ops = self._op_specs
        journal = self.replay_journal
        trace = self._trace
        throttle = cfg.throttle
        throttle_check_s = THROTTLE_CHECK_S

        # One boolean cell per optional feature, and beside it the bound
        # methods of the object that implements the feature.
        tracing = trace is not None
        dedup = eo is not None
        dedup_skips = eo.skips if eo is not None else None
        pin_replay = eo.pin if eo is not None else None
        unpin_replay = eo.unpin if eo is not None else None
        at_least_once = journal is not None and not dedup
        batching = cfg.batch_max_events > 0
        batch_max = cfg.batch_max_events
        linger_s = max(0.0, cfg.batch_linger_s)
        shedding = overload.controller is not None
        thinnable = overload.thinnable
        thin = overload.thin
        divert_proactively = overload.divert_proactively
        muppet2 = cfg.engine == ENGINE_MUPPET2
        muppet1 = not muppet2
        hashed_worker = self._membership.worker
        two_choice = muppet2 and cfg.two_choice

        lock_s = costs.dispatch_lock_s * (2 if muppet2 else 1)
        switch_s = costs.context_switch_s
        map_s = costs.map_service_s
        upd_s = costs.update_service_s
        byte_s = costs.slate_byte_cost_s
        cont_s = costs.slate_contention_s
        source_s = costs.source_service_s
        # Muppet 1.0 conductor <-> task-processor IPC: a fixed wakeup
        # cost plus a byte-accurate serialization charge.
        ipc = (None if muppet2
               else IPCAccountant(fixed_s=costs.ipc_overhead_s))
        # NetworkSpec.transfer_time, inlined below (loopback is free).
        net = self.cluster.network
        net_lat = net.latency_s
        net_bw = net.bandwidth_bytes_per_s
        max_bytes = cfg.max_slate_bytes
        write_through = cfg.flush_policy.kind == "write_through"
        sinks = cfg.latency_sinks
        latency_ops = frozenset(
            s.name for s in self.app.operators()
            if s.kind == "update" and (sinks is None or s.name in sinks))
        # sid -> (sequencer, subscriber names, external?). Stamping is
        # inlined through this table; an unknown sid, or an operator
        # publishing into an external stream, takes the registry's
        # checked stamp(), which raises the proper WorkflowError.
        stream_info = {
            sid: (streams._seq[sid],
                  tuple(s.name for s in self._subscribers_of(sid)),
                  streams.spec(sid).external)
            for sid in streams.sids()}
        tuple_new = tuple.__new__
        obj_new = object.__new__

        # (key, fn) -> _Machine, valid for one ring generation; _send and
        # _deliver's effectively-once re-check share it. 2.0 only: a
        # planned 1.0 join or retirement moves worker-ring points without
        # touching ``ring``, so its generation would not show it.
        dest_memo: Dict[Tuple[str, str], _Machine] = {}
        ring_gen = [ring.generation]
        #: (key, fn) -> SlateKey: pure value identity, only bounded.
        skeys: Dict[Tuple[str, str], SlateKey] = {}
        #: (source, destination) -> _Link, in the order the links' current
        #: buffers began to fill: the order forced flushes ship them in.
        links: Dict[Tuple[Optional[str], str], _Link] = {}

        destination_machine = self._destination_machine
        handle_dead = self._handle_dead_destination
        overflow = self._overflow
        schedule_timer = self._schedule_timer
        charge_device = self._charge_device
        trace_envelope = self._trace_envelope

        def memo_miss(item: Tuple[str, str],
                      envelope: _Envelope) -> Optional[_Machine]:
            """Ask the ring for ``item``'s owner; memoize a live one."""
            machine = destination_machine(envelope)
            if machine is not None:
                if len(dest_memo) >= _MEMO_MAX:
                    dest_memo.clear()
                dest_memo[item] = machine
            return machine

        def _send(envelope: _Envelope, from_machine: Optional[str],
                  extra_delay: float = 0.0) -> None:  # hot-path
            event = envelope.event
            if muppet2:
                if ring_gen[0] != ring.generation:
                    dest_memo.clear()
                    ring_gen[0] = ring.generation
                item = (event.key, envelope.dest_fn)
                machine = dest_memo.get(item) or memo_miss(item, envelope)
            else:
                machine = destination_machine(envelope)
            if machine is None:
                counters.lost_failure += 1
                return
            if dedup and not envelope.is_timer:
                # Effectively-once journals *before* the liveness check:
                # an event addressed to a machine that died an instant
                # ago (the window before the master broadcast reroutes
                # the ring) must still be replayable, or it is lost
                # exactly as under at-most-once. Timers are exempt — a
                # replayed invocation that re-applies re-derives its
                # timers, so journaling them too would double-fire.
                journal.record(machine.name, envelope, clock._now)
            if not machine.alive:
                handle_dead(machine, envelope)
                return
            if at_least_once:
                journal.record(machine.name, envelope, clock._now)
            same = from_machine == machine.name
            if same:
                delay = extra_delay
            else:
                # Event.size_bytes() inlined for the common payload
                # types (same arithmetic; other types take the method).
                v = event.value
                tv = type(v)
                if v is None:
                    size = 16 + len(event.sid) + len(event.key)
                elif tv is int:
                    size = (16 + len(event.sid) + len(event.key)
                            + len(repr(v)))
                elif tv is str:
                    size = (16 + len(event.sid) + len(event.key)
                            + len(v.encode("utf-8")))
                else:
                    size = event.size_bytes()
                if (batching and not same
                        and not (dedup and envelope.replayed)):
                    # Loopback sends skip batching: they pay no
                    # per-message network latency, so coalescing would
                    # only add linger. Replayed envelopes
                    # (effectively-once) also ship solo: a resend
                    # lingering in a coalescing buffer could be overtaken
                    # by a fresh, higher-sequence event arriving over a
                    # different link, and a lost event sneaking in
                    # *behind* the watermark its successor advanced would
                    # be mistaken for a duplicate. Batching only ever
                    # delays an event, so solo resends stay ahead of
                    # everything sent after them.
                    lkey = (from_machine, machine.name)
                    link = links.get(lkey)
                    if link is None:
                        link = links[lkey] = new_link(from_machine, machine)
                    elif not link.buffer:  # refilling: ships after the rest
                        links[lkey] = links.pop(lkey)
                    buffer = link.buffer
                    buffer.append(envelope)
                    link.bytes += size
                    dataplane.batched_events += 1
                    if extra_delay > link.extra:
                        link.extra = extra_delay
                    if len(buffer) >= batch_max:
                        dataplane.size_flushes += 1
                        link.ship(None, "size")
                    elif link.timer is None:
                        # Simulator.schedule_cancellable, inlined: the
                        # timer runs the link's ship unless a flush
                        # cancels it first (then popping it costs no step).
                        timer = link.timer = obj_new(ScheduledEvent)
                        timer.cancelled = False
                        heappush(heap, (clock._now + linger_s, 0,
                                        next(sim_seq), link.ship, timer,
                                        None))
                    return
                delay = extra_delay + (net_lat + size / net_bw)
            if injector is not None:
                delivered, delay = injector.message_fate(
                    from_machine, machine.name, clock._now, delay)
                if not delivered:
                    # Partition/drop losses are silent: the sender does
                    # not learn of them, so no failure report follows
                    # (unlike a dead destination). Replay, if enabled,
                    # journaled the event above and can resurrect it on
                    # a later crash.
                    return
            now = clock._now
            heappush(heap, (now + delay if delay > 0.0 else now, 0,
                            next(sim_seq), _deliver, None,
                            (machine, envelope)))

        def new_link(src: Optional[str], dst: _Machine) -> _Link:
            """A link and its ``ship``, the one way its buffer leaves."""

            def ship(sim: Optional[Simulator],
                     trigger: str = "linger") -> None:  # hot-path
                """Ship the buffer as one coalesced envelope.

                One per-message network latency is paid for the whole
                batch, plus bandwidth for the combined payload bytes;
                the fault injector decides one fate for the envelope (a
                dropped batch loses every event in it, like a dropped
                TCP connection). An arrival-time clamp keeps the link
                FIFO: a later, smaller batch must not overtake an
                earlier, larger one mid-flight.
                """
                timer = link.timer
                if timer is not None:
                    timer.cancelled = True
                    link.timer = None
                envelopes = link.buffer
                if not envelopes:
                    return
                if trigger == "linger":
                    dataplane.linger_flushes += 1
                total, extra = link.bytes, link.extra
                link.buffer, link.bytes, link.extra = [], 0, 0.0
                machine = link.dst
                if not machine.alive:
                    for env in envelopes:
                        handle_dead(machine, env)
                    return
                now = clock._now
                delay = extra + (net_lat + total / net_bw)
                if injector is not None:
                    delivered, delay = injector.message_fate(
                        link.src, machine.name, now, delay)
                    if not delivered:
                        return
                arrival = now + delay
                if link.last_arrival > arrival:
                    arrival = link.last_arrival
                link.last_arrival = arrival
                dataplane.batches_sent += 1
                count = len(envelopes)
                if count > dataplane.max_batch_events:
                    dataplane.max_batch_events = count
                if trace is not None:
                    trace.emit(now, "batch_flush", src=link.src,
                               dst=machine.name, events=count,
                               trigger=trigger)

                def deliver_all(sim: Simulator) -> None:  # hot-path
                    for env in envelopes:
                        # A heap-dispatched _deliver returns the started
                        # event's finish as its tail; mid-batch it is
                        # pushed at once, so sequence numbers are consumed
                        # in the same order.
                        tail = _deliver(machine, env)
                        if tail is not None:
                            heappush(heap, (tail[0], 0, next(sim_seq),
                                            tail[1], None, tail[2]))

                heappush(heap, (arrival, 0, next(sim_seq), deliver_all,
                                None, None))

            # The model checker labels a heap entry by its callable's
            # __qualname__; a linger timer has always been ``ctl:<lambda>``
            # and the label vocabulary is part of its contract.
            ship.__qualname__ = "<lambda>"
            link = _Link(src, dst, ship)
            return link

        def flush_batches(to: Optional[_Machine] = None) -> None:
            """Force every buffered batch onto the wire (ring changes,
            checkpoints), or only those headed ``to`` one machine (it
            just died)."""
            for link in list(links.values()):
                if link.buffer and (to is None or link.dst is to):
                    dataplane.forced_flushes += 1
                    link.ship(None, "forced")

        def _inject(event: Event) -> None:  # hot-path
            """M0 reads one source event and hashes it onward (§4.1)."""
            info = stream_info.get(event[0])
            if info is None:
                stamped = streams.stamp(event)  # raises: unknown sid
            else:
                # Event.with_seq, flattened to one C-level allocation
                # (fields are tuple slots 0..6).
                stamped = tuple_new(
                    Event, (event[0], event[1], event[2], event[3],
                            next(info[0]), event[5], event[6]))
            counters.published += 1
            birth = clock._now
            if trace is not None:
                origin, oseq = stamped.provenance()
                trace.emit(birth, "source", sid=stamped.sid,
                           key=stamped.key, origin=origin, oseq=oseq)
            for sub_name in info[1]:
                # _Envelope(stamped, birth, sub_name), allocated without
                # the dataclass __init__ frame.
                env = obj_new(_Envelope)
                env.event = stamped
                env.birth_ts = birth
                env.dest_fn = sub_name
                env.is_timer = False
                env.timer_payload = None
                env.diverted = False
                env.replayed = False
                _send(env, None, source_s)

        def try_start(worker: _Worker, tail: bool):  # hot-path
            """Start the worker's next queued event if a core is free;
            the event's ``_finish`` is returned (``tail``) or pushed."""
            machine = worker.machine
            if not machine.alive or worker.busy:
                return None
            items = worker.queue._items
            if not items:
                return None
            if machine.free_cores <= 0:
                if not worker.waiting:
                    machine.waiting.append(worker)
                    worker.waiting = True
                return None
            machine.free_cores -= 1
            envelope = items.popleft()
            worker.busy = True
            event = envelope.event
            fn = envelope.dest_fn
            key = event[2]
            ts = event[1]
            item = (key, fn)
            worker.current = item
            if (dedup and machine.replay_pins and envelope.replayed
                    and not envelope.is_timer):
                unpin_replay(machine, item)
            count = pcounts.get(item, 0) + 1
            pcounts[item] = count
            if count > rt._max_workers_per_slate:
                rt._max_workers_per_slate = count
            # -- execute: run the operator now, charge its service time --
            spec = ops[fn]
            # Muppet 1.0 loads one copy of the code per worker process.
            instance = machine.shared_instances[fn if muppet2
                                                else worker.wid]
            # Context(), allocated without the constructor frame — the
            # slot stores below are __init__'s body verbatim.
            ctx = obj_new(Context)
            ctx.operator = fn
            ctx.input_ts = ts
            ctx.input_key = key
            ctx.now = ts
            ctx._output_sids = spec.publishes
            ctx.emitted = []
            ctx.timers = []
            if tracing:
                rt._trace_execute(machine, worker, envelope, spec)
            service = lock_s
            if muppet1 and len(machine.workers) > machine.cores:
                service += switch_s
            #: Thinned or dedup-skipped: the slate is not touched, no
            #: output is produced, and the service charged so far stands.
            skipped = False
            if spec.kind == "map":
                if envelope.is_timer:
                    raise SimulationError("timer delivered to a mapper")
                instance.map(ctx, event)
                service += map_s * instance.cost_factor
                if muppet1:
                    service += ipc.cost(
                        event.size_bytes(), output_bytes=sum(
                            e.size_bytes() for e in ctx.emitted))
            else:
                weight = 1.0
                if (shedding and not envelope.is_timer
                        and machine.pressure_tier >= TIER_THIN
                        and fn in thinnable):
                    weight = thin(machine, fn, event)
                    skipped = weight is None
                if not skipped:
                    mgr = worker.mgr
                    # Slate-cache hit, inlined with SlateCache.get's
                    # exact bookkeeping (LRU touch + hit count). Miss or
                    # TTL expiry delegates to the manager, which then
                    # does its own (single) stats accounting.
                    sk = skeys.get(item)
                    if sk is None:
                        if len(skeys) >= _MEMO_MAX:
                            skeys.clear()
                        sk = skeys[item] = SlateKey(fn, key)
                    cache = mgr.cache
                    slate = cache._slates.get(sk)
                    if slate is not None and (
                            slate.ttl is None
                            or not slate.expired(clock._now)):
                        cache._slates.move_to_end(sk)
                        cache.stats.hits += 1
                    else:
                        slate = mgr.get(instance, key)
                    if mgr.pending_io_s > 0.0:
                        service += charge_device(machine, mgr)
                    if (dedup and envelope.replayed
                            and not envelope.is_timer):
                        skipped = dedup_skips(machine, fn, event, slate)
                if not skipped:
                    if envelope.is_timer:
                        instance.on_timer(ctx, key, slate,
                                          envelope.timer_payload)
                    else:
                        if weight != 1.0:
                            instance.update_weighted(ctx, event, slate,
                                                     weight)
                        else:
                            instance.update(ctx, event, slate)
                        if dedup:  # Event.provenance(), from its slots
                            if event[5] is None:
                                slate.advance_watermark(event[0], event[4])
                            else:
                                slate.advance_watermark(event[5], event[6])
                    # Slate.touch + SlateManager.note_update, inlined:
                    # the version bump keys the size/encode caches, the
                    # dirty transition feeds the cache's dirty index.
                    slate.last_update_ts = ts
                    slate._version += 1
                    if not slate._dirty:
                        slate._dirty = True
                        listener = slate._dirty_listener
                        if listener is not None:
                            listener(slate, True)
                    if max_bytes is not None:
                        slate.check_size(max_bytes)
                    if write_through:
                        mgr._flush_slate(slate)
                    if mgr.pending_io_s > 0.0:
                        service += charge_device(machine, mgr)
                    # Slate.estimated_bytes, inlined with its per-version
                    # cache discipline; the non-counter shape falls back
                    # to the method (which recomputes and caches alike).
                    if slate._size_version == slate._version:
                        sbytes = slate._size_bytes
                    else:
                        sbytes = _json_size_fast(slate._data)
                        if sbytes < 0:
                            sbytes = slate.estimated_bytes()
                        else:
                            slate._size_version = slate._version
                            slate._size_bytes = sbytes
                    service += (upd_s * instance.cost_factor
                                + byte_s * sbytes)
                    if muppet1:
                        service += ipc.cost(
                            event.size_bytes(), slate_bytes=sbytes,
                            output_bytes=sum(
                                e.size_bytes() for e in ctx.emitted))
                    if count > 1:
                        service += cont_s
                        rt._contention_events += 1
            if injector is not None and not skipped:
                factor = injector.cpu_factor(machine.name, clock._now)
                if factor > 1.0:
                    extra = service * (factor - 1.0)
                    service += extra
                    injector.note_gray_cpu(extra)
            # ---------------------------------------------------------------
            now = clock._now
            at = now + service if service > 0.0 else now
            if tail:
                return (at, _finish,
                        (worker, envelope, ctx.emitted, ctx.timers))
            heappush(heap, (at, 0, next(sim_seq), _finish, None,
                            (worker, envelope, ctx.emitted, ctx.timers)))
            return None

        def _deliver(machine: _Machine, envelope: _Envelope):  # hot-path
            if not machine.alive:
                handle_dead(machine, envelope)
                return None
            key = envelope.event.key
            fn = envelope.dest_fn
            item = (key, fn)
            pin = None
            if dedup:
                # Close the rebalance residual hazard (see
                # :meth:`schedule_add_machine`): an event that was in
                # flight — or parked in a coalescing buffer — while the
                # ring moved its key would update the old owner's
                # orphaned cache copy and lose the last-write-wins race.
                # Exactness cannot absorb that, so late arrivals
                # re-route to the current owner — asked of _send's memo,
                # under the same generation compare.
                if muppet2:
                    if ring_gen[0] != ring.generation:
                        dest_memo.clear()
                        ring_gen[0] = ring.generation
                    target = dest_memo.get(item) or memo_miss(item, envelope)
                else:
                    target = destination_machine(envelope)
                if target is not None and target is not machine:
                    _send(envelope, machine.name)
                    return None
                if machine.replay_pins:
                    pin = machine.replay_pins.get(item)
            if (shedding and machine.pressure_tier >= TIER_OVERFLOW
                    and divert_proactively(machine, envelope)):
                return None
            workers = machine.workers
            if pin is not None:
                # Replay ordering guard (see _Machine.replay_pins): a
                # queued replay pins its (key, fn) to one worker so no
                # fresh same-key event can overtake it via the spill
                # rule.
                worker = pin[0]
            elif not muppet2:
                worker = hashed_worker(key, fn)
                if worker.machine is not machine:
                    # The ring moved this key (failure broadcast raced
                    # the send); re-route from scratch.
                    _send(envelope, machine.name)
                    return None
            elif not two_choice:
                worker = machine.dispatcher.choose_workers(key, fn, workers)
            else:
                # TwoChoiceDispatcher.choose_workers + the candidates
                # memo hit, inlined (stats identical by construction;
                # the miss path is the dispatcher's own candidates(),
                # which accounts itself).
                dispatcher = machine.dispatcher
                dstats = dispatcher.stats
                dstats.dispatched += 1
                if dispatcher.num_threads == 1:
                    dstats.queue_locks += 1
                    worker = workers[0]
                    if worker.current == item:
                        dstats.affinity_hits += 1
                    dstats.to_primary += 1
                else:
                    pair = dispatcher._memo.get(item)
                    if pair is None:
                        pair = dispatcher.candidates(key, fn)
                    else:
                        dstats.memo_hits += 1
                    dstats.queue_locks += 2
                    worker = workers[pair[0]]
                    if worker.current == item:
                        dstats.to_primary += 1
                        dstats.affinity_hits += 1
                    else:
                        second = workers[pair[1]]
                        if second.current == item:
                            dstats.to_secondary += 1
                            dstats.affinity_hits += 1
                            worker = second
                        elif (len(worker.queue._items)
                              >= SIGNIFICANT_FACTOR
                              * (len(second.queue._items) + 1)):
                            dstats.to_secondary += 1
                            dstats.spills += 1
                            worker = second
                        else:
                            dstats.to_primary += 1
            if tracing:
                trace_envelope("dispatch", machine, envelope,
                               worker=worker.index)
            # BoundedQueue.offer, inlined.
            queue = worker.queue
            qstats = queue.stats
            items = queue._items
            qstats.offered += 1
            if len(items) >= queue.max_size:
                qstats.rejected += 1
                overflow(machine, worker, envelope)
                return None
            items.append(envelope)
            qstats.accepted += 1
            depth = len(items)
            if depth > qstats.peak_depth:
                qstats.peak_depth = depth
            if (dedup and muppet2 and envelope.replayed
                    and not envelope.is_timer):
                pin_replay(machine, worker, envelope)
            if tracing:
                trace_envelope("enqueue", machine, envelope,
                               worker=worker.index, depth=depth)
            if worker.busy:  # the saturated regime: no call frame
                return None
            return try_start(worker, True)

        def _finish(worker: _Worker, envelope: _Envelope,
                    outputs: List[Event],
                    timers: List[TimerRequest]):  # hot-path
            machine = worker.machine
            item = worker.current
            if item is not None:
                # try_start seeds pcounts[item] before it schedules this
                # finish, so plain indexing is safe.
                remaining = pcounts[item] - 1
                if remaining <= 0:
                    pcounts.pop(item, None)
                else:
                    pcounts[item] = remaining
            worker.busy = False
            worker.current = None
            machine.free_cores += 1
            if not machine.alive:
                counters.lost_failure += 1
                return None
            counters.processed += 1
            fn = envelope.dest_fn
            if fn in latency_ops and not envelope.is_timer:
                recorder = latency.get(fn)
                if recorder is None:
                    recorder = latency[fn] = LatencyRecorder()
                recorder._samples.append(clock._now - envelope.birth_ts)
            if outputs:
                birth = envelope.birth_ts
                replayed = envelope.replayed
                from_name = machine.name
                if dedup:
                    # Replay-stable identity (origin, base + i) for output
                    # i, derived from the *input* event's provenance, not
                    # the registry's seq (which keeps counting across
                    # replays): a replay re-derives it and downstream
                    # watermarks see the duplicate. Past the stride, ids
                    # would reuse the next parent's and skip real updates.
                    if len(outputs) > ORIGIN_SEQ_STRIDE:
                        raise SimulationError(
                            f"{fn} emitted {len(outputs)} events in one call;"
                            f" at most {ORIGIN_SEQ_STRIDE} get distinct ids")
                    # derive_origin(parent, fn, 0), from the tuple slots.
                    parent = envelope.event
                    if parent[5] is None:
                        origin = f"{parent[0]}>{fn}"
                        base = parent[4] * ORIGIN_SEQ_STRIDE
                    else:
                        origin = f"{parent[5]}>{fn}"
                        base = parent[6] * ORIGIN_SEQ_STRIDE
                ordinal = 0
                for out in outputs:
                    info = stream_info.get(out[0])
                    if info is None or info[2]:
                        stamped = streams.stamp(out, from_operator=True)
                        info = stream_info[stamped.sid]
                        if dedup:
                            stamped = stamped.with_provenance(
                                origin, base + ordinal)
                    elif dedup:
                        stamped = tuple_new(
                            Event, (out[0], out[1], out[2], out[3],
                                    next(info[0]), origin, base + ordinal))
                    else:
                        stamped = tuple_new(
                            Event, (out[0], out[1], out[2], out[3],
                                    next(info[0]), out[5], out[6]))
                    if tracing:
                        rt._trace_publish(envelope, stamped, ordinal)
                    counters.published += 1
                    for sub_name in info[1]:
                        env = obj_new(_Envelope)
                        env.event = stamped
                        env.birth_ts = birth
                        env.dest_fn = sub_name
                        env.is_timer = False
                        env.timer_payload = None
                        env.diverted = False
                        env.replayed = replayed
                        _send(env, from_name)
                    ordinal += 1
            if timers:
                for timer in timers:
                    schedule_timer(machine, envelope, timer)
            waiting = machine.waiting
            while machine.free_cores > 0 and waiting:
                next_worker = waiting.popleft()
                next_worker.waiting = False
                try_start(next_worker, False)
            if worker.queue._items:
                return try_start(worker, True)
            return None

        def _start_source(source: Source) -> None:
            iterator = source.events
            pending = [next(iterator, None)]

            def step(sim: Simulator):  # hot-path
                # Drain every event already due in one step, then sleep
                # until the next arrival — one wake-up per quiet gap,
                # returned as a tail so a quiescent gap advances without
                # heap traffic.
                event = pending[0]
                now = clock._now
                while event is not None:
                    if throttle is not None and throttle.paused:
                        counters.throttled += 1
                        pending[0] = event
                        return (now + throttle_check_s, step, None)
                    if event.ts > now:
                        pending[0] = event
                        return (event.ts, step, None)
                    _inject(event)
                    event = next(iterator, None)
                pending[0] = None
                return None

            self.sim.schedule_in(0.0, step)

        self._inject = _inject
        self._send = _send
        self._deliver = _deliver
        self._finish = _finish
        self._start_source = _start_source
        self._flush_batches = flush_batches

    # -- cold helpers of the per-event path ------------------------------------------
    def _charge_device(self, machine: _Machine, mgr: SlateManager) -> float:
        """Queue the manager's accrued synchronous kv I/O behind the
        machine's storage device; returns the wait it adds."""
        now = self.sim.now()
        return machine.occupy_device(now, mgr.take_pending_io()) - now

    def _trace_envelope(self, kind: str, machine: _Machine,
                        envelope: _Envelope, **fields: Any) -> None:
        """Emit one span about an envelope at a machine (tracing on)."""
        origin, oseq = envelope.event.provenance()
        self._trace.emit(  # noqa: MUP005 -- every caller is behind the guard
            self.sim.now(), kind, machine=machine.name, fn=envelope.dest_fn,
            key=envelope.event.key, **fields, origin=origin, oseq=oseq)

    def _trace_execute(self, machine: _Machine, worker: _Worker,
                       envelope: _Envelope, spec: OperatorSpec) -> None:
        event = envelope.event
        origin, oseq = event.provenance()
        extra: Dict[str, Any] = {}
        if spec.kind == "update":
            # The kv-store cell this update touches — the join key that
            # lets reconstruct_chain follow the event through slate
            # flushes into replica writes.
            extra["updater"] = spec.name
            extra["row"], extra["column"] = SlateKey(
                spec.name, event.key).row_column()
        self._trace.emit(  # noqa: MUP005 -- the one caller is behind the guard
            self.sim.now(), "execute", machine=machine.name, op=spec.name,
            op_kind=spec.kind, key=event.key, worker=worker.index,
            timer=envelope.is_timer, replayed=envelope.replayed,
            origin=origin, oseq=oseq, **extra)

    def _trace_publish(self, envelope: _Envelope, stamped: Event,
                       ordinal: int) -> None:
        parent_origin, parent_oseq = envelope.event.provenance()
        child_origin, child_oseq = stamped.provenance()
        self._trace.emit(  # noqa: MUP005 -- the one caller is behind the guard
            self.sim.now(), "publish", sid=stamped.sid, op=envelope.dest_fn,
            ordinal=ordinal, parent_origin=parent_origin,
            parent_oseq=parent_oseq, origin=child_origin, oseq=child_oseq)

    def _schedule_timer(self, machine: _Machine, envelope: _Envelope,
                        timer: TimerRequest) -> None:
        fire_at = max(self.sim.now() + 1e-9, timer.at_ts)
        timer_event = timer.fired()
        if self._eo is not None:
            # Each firing gets a unique runtime-local identity. Timer
            # invocations are never journaled or deduped themselves
            # (re-applying an update re-derives its timers), but their
            # *outputs* inherit provenance from this event — without a
            # unique oseq, outputs of distinct firings would collide.
            timer_event = timer_event.with_provenance(
                timer_event.sid, next(self._eo.timer_ids))
        timer_env = _Envelope(timer_event, envelope.birth_ts, timer.updater,
                              is_timer=True, timer_payload=timer.payload)
        self.sim.schedule_call(fire_at, self._send,
                               timer_env, machine.name)

    # -- the background flusher ---------------------------------------------------
    def _schedule_flusher(self) -> None:
        def tick(sim: Simulator) -> None:
            if self._timeline is not None:
                # Piggyback timeline sampling on this pre-existing tick:
                # no extra simulator events, so the step count (and with
                # it counter_report) is identical with the timeline on.
                self._sample_timeline(sim.now())
            for machine in self.machines.values():  # noqa: MUP003 -- single-threaded DES; machine insertion order is deterministic
                if not machine.alive:
                    continue
                io = 0.0
                for mgr in self._managers_of(machine):
                    mgr.flush_due()
                    io += mgr.take_pending_io()
                node = self.store.nodes.get(machine.name)
                if node is not None:
                    io += node.take_background_cost()
                if io > 0:
                    machine.occupy_device(sim.now(), io)

        self.sim.every(self.config.flusher_period_s, tick)

    def _sample_timeline(self, now: float) -> None:
        """Record one timeline sample (read-only over engine state)."""
        timeline = self._timeline
        assert timeline is not None
        for machine in self.machines.values():
            timeline.sample_machine(
                now, machine.name,
                queue_depth=sum(len(w.queue) for w in machine.workers),
                queue_peak=max((w.queue.stats.peak_depth
                                for w in machine.workers), default=0),
                dirty_slates=sum(m.cache.dirty_count()
                                 for m in self._managers_of(machine)),
                alive=machine.alive)
        for name, recorder in self.latency.items():
            timeline.sample_updater(now, name, recorder.samples)

    # -- the ring-change primitive ------------------------------------------------
    def _change_ring(self, change: str, machine: _Machine, *,
                     flush: bool = False, reroute: bool = True,
                     before_reroute: Optional[Callable[[], None]] = None
                     ) -> None:
        """The one way ring membership moves.

        ``change`` is ``"exclude"`` (the Section 4.3 failure broadcast),
        ``"restore"`` (the recovery broadcast), ``"join"`` or
        ``"retire"`` (planned membership, legacy or at a migration's
        cutover). The steps always run in this order, at one simulated
        instant:

        1. ``flush`` — the rebalance barrier: every dirty slate goes to
           the kv-store first, so no key moves while its freshest state
           is only in a cache.
        2. The membership object applies the change to its rings.
        3. The ``ring_change`` span opens the new ring epoch.
        4. ``before_reroute`` — what must see the new ring but precede
           re-delivery (a migration re-addresses the journal and emits
           its handoff spans here).
        5. ``reroute`` — queued envelopes whose key changed owner move
           to the new owner.
        """
        if flush:
            self._rebalance_flush()
        getattr(self._membership, change)(machine)
        if self._trace is not None:
            self._trace.emit(self.sim.now(), "ring_change",
                             change=change, machine=machine.name)
        if before_reroute is not None:
            before_reroute()
        if reroute:
            self._reroute_queued()

    def _rebalance_flush(self) -> None:
        """Flush every dirty slate cluster-wide before a ring change, so
        no key moves while its freshest state is only in a cache."""
        for machine in self.machines.values():  # noqa: MUP003, MUP010 -- single-threaded DES; machine insertion order is deterministic
            if not machine.alive:
                continue
            io = 0.0
            for mgr in self._managers_of(machine):
                mgr.flush_all_dirty()
                io += mgr.take_pending_io()
            if io > 0:
                machine.occupy_device(self.sim.now(), io)

    def _reroute_queued(self) -> None:
        """Move queued events whose keys changed owner to the new owner.

        Without this, a deep backlog queued at the old owner would keep
        updating its orphaned cache copy while fresh events hit the new
        owner — divergence far beyond the in-flight window under load.
        """
        # Batched events are part of that backlog too: push them onto
        # the wire now so nothing lingers addressed to the old owner.
        self._flush_batches()
        hashed_worker = self._membership.worker
        eo = self._eo
        for machine in list(self.machines.values()):
            if not machine.alive:
                continue
            # Pins are rebuilt below from the envelopes that stay; moved
            # replays re-pin at their new owner on re-delivery.
            machine.replay_pins.clear()
            for worker in machine.workers:
                kept: List[_Envelope] = []
                for envelope in worker.queue.drain():
                    moved = self._destination_machine(envelope) is not machine
                    if not moved:
                        hashed = hashed_worker(envelope.event.key,
                                               envelope.dest_fn)
                        moved = hashed is not None and hashed is not worker
                    if moved:
                        self._send(envelope, machine.name)
                    else:
                        kept.append(envelope)
                for envelope in kept:
                    worker.queue.offer(envelope)
                    if (eo is not None and eo.pin_replays
                            and envelope.replayed and not envelope.is_timer):
                        eo.pin(machine, worker, envelope)

    # -- elastic membership (Section 5 "Changing the Number of Machines
    # on the Fly", implemented as an extension) --------------------------------
    def schedule_add_machine(self, at: float, name: str,
                             cores: int = 4) -> None:
        """Add a machine to the worker ring at simulated time ``at``.

        The paper calls out the hard part: moving a key while its slate
        has unflushed changes on the old owner would need the slate
        "replicated at both A and B". The legacy answer (and still the
        default when ``SimConfig.migration`` is None) is a *rebalance
        barrier*: immediately before the ring change, every dirty slate
        is flushed to the key-value store. The new owner then simply
        misses its cache and refetches — the normal Section 4.2 path.
        With migration configured, the join instead runs the
        five-phase incremental handoff (snapshot → delta_stream →
        cutover → ack → release): donors stream changelogs to the
        joiner while still owning the keys, and only the cutover
        instant flips the ring. The co-located kv-store ring stays
        fixed either way (the paper's Cassandra cluster is managed
        separately).

        Residual hazard of the legacy path (bounded, not eliminated):
        an event already *in flight* to the old owner when the ring
        changes still updates the old owner's now-orphaned cache copy,
        and that update can lose the last-write-wins race against the
        new owner's flushes — at most the in-flight window's worth of
        updates, typically zero to a few events. The incremental path
        shrinks that window to the final cutover delta but shares the
        same in-flight bound.
        """
        def join(sim: Simulator) -> None:
            self._elastic.join(name, cores)

        self.sim.schedule(at, join, priority=-1)

    def schedule_remove_machine(self, at: float, name: str) -> None:
        """Retire a machine from the worker ring at simulated time ``at``.

        The machine stays constructed (and alive) but leaves the ring:
        its keys move to the survivors — via live handoff when
        ``SimConfig.migration`` is set, via the legacy flush barrier
        otherwise — and it becomes the first re-admission candidate for
        a later scale-up. Retirement is planned downsizing, not a
        failure: nothing is lost, nothing replays.
        """
        def leave(sim: Simulator) -> None:
            self._elastic.retire(name)

        self.sim.schedule(at, leave, priority=-1)

    def _managers_of(self, machine: _Machine) -> List[SlateManager]:
        """The machine's slate managers, in worker order (never a set:
        what iterates them writes to the kv-store)."""
        if machine.central_mgr is not None:
            return [machine.central_mgr]
        return [w.mgr for w in machine.workers]

    # -- results ---------------------------------------------------------------
    def slate(self, updater: str, key: str) -> Optional[Dict[str, Any]]:
        """Read a slate's final contents from cache, else the kv-store.

        Mirrors the HTTP slate fetch (Section 4.4): the cache answer wins
        because it is fresher than the durable store. When several caches
        hold a copy (a survivor's orphaned copy after a failover-and-
        recover cycle), the most recently updated one wins.
        """
        slate_key = SlateKey(updater, key)
        best = None
        for machine in self.machines.values():
            for mgr in self._managers_of(machine):
                slate = mgr.cache.peek(slate_key)
                if slate is not None and (
                        best is None
                        or slate.last_update_ts > best.last_update_ts):
                    best = slate
        if best is not None:
            return best.as_dict()
        try:
            result = self.store.read(key, updater)
        except StoreError:
            return None
        if result.value is None:
            return None
        fields, _ = split_watermarks(DEFAULT_CODEC.decode(result.value))
        return fields

    def slates_of(self, updater: str,
                  read_through: bool = False) -> Dict[str, Dict[str, Any]]:
        """All cached slates of one updater (post-run inspection).

        Freshest copy wins when several caches hold the same slate —
        after a failover-and-recover cycle, survivors retain orphaned
        (stale) copies of keys that moved back to the revived owner.

        With ``read_through=True`` the kv-store's column is scanned too,
        so slates that were flushed and then dropped from every cache
        (a full-rehydration cutover whose keys saw no later traffic)
        still appear; a resident copy only loses to the store when the
        store's write is fresher.
        """
        found: Dict[str, Tuple[float, Dict[str, Any]]] = {}
        for machine in self.machines.values():
            for mgr in self._managers_of(machine):
                for slate_key in mgr.cache.resident():
                    if slate_key.updater != updater:
                        continue
                    slate = mgr.cache.peek(slate_key)
                    if slate is None:
                        continue
                    known = found.get(slate_key.key)
                    if known is None or slate.last_update_ts > known[0]:
                        found[slate_key.key] = (slate.last_update_ts,
                                                slate.as_dict())
        if read_through:
            for row, cell in self.store.column_cells(updater).items():
                known = found.get(row)
                if known is not None and known[0] >= cell.write_ts:
                    continue
                fields, _ = split_watermarks(DEFAULT_CODEC.decode(cell.value))
                found[row] = (cell.write_ts, fields)
        return {key: contents for key, (_, contents) in found.items()}

    def _report(self, duration_s: float) -> SimReport:
        return build_report(self, duration_s)


#: The constructor under the name ``bench/`` imports. There is nothing to
#: choose between any more.
create_runtime = SimRuntime
