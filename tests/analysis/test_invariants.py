"""Trace invariant checker: passes real traces, fails corrupted ones."""

import json

import pytest

from repro.analysis.invariants import InvariantChecker, check_trace
from repro.campaign.e6_failures import recover_run
from repro.campaign.scenarios import e24_migration_run
from repro.errors import AnalysisError
from repro.obs.trace import RingTracer


def _span(kind, ts=0.0, **fields):
    return {"ts": ts, "kind": kind, **fields}


def _enqueue(machine, worker, oseq, key="k0", fn="U1", origin="S1"):
    return _span("enqueue", machine=machine, worker=worker, fn=fn,
                 key=key, origin=origin, oseq=oseq)


def _execute(machine, worker, oseq, key="k0", op="U1", origin="S1",
             op_kind="update", timer=False):
    return _span("execute", machine=machine, worker=worker, op=op,
                 op_kind=op_kind, key=key, origin=origin, oseq=oseq,
                 timer=timer)


class TestFifo:
    def test_in_order_execution_passes(self):
        spans = [
            _enqueue("m0", 0, 1), _enqueue("m0", 0, 2),
            _execute("m0", 0, 1), _execute("m0", 0, 2),
        ]
        assert InvariantChecker(spans).check_fifo() == []

    def test_dropped_event_is_tolerated(self):
        # oseq=1 vanished (overflow drop); 2 executing is not an
        # inversion.
        spans = [
            _enqueue("m0", 0, 1), _enqueue("m0", 0, 2),
            _execute("m0", 0, 2),
        ]
        assert InvariantChecker(spans).check_fifo() == []

    def test_inversion_is_flagged(self):
        spans = [
            _enqueue("m0", 0, 1), _enqueue("m0", 0, 2),
            _execute("m0", 0, 2), _execute("m0", 0, 1),
        ]
        violations = InvariantChecker(spans).check_fifo()
        assert len(violations) == 1
        assert violations[0].invariant == "fifo"
        assert "without a pending enqueue" in violations[0].message

    def test_queues_are_independent(self):
        # The same provenance on two distinct worker queues does not
        # cross-contaminate.
        spans = [
            _enqueue("m0", 0, 1), _enqueue("m0", 1, 2),
            _execute("m0", 1, 2), _execute("m0", 0, 1),
        ]
        assert InvariantChecker(spans).check_fifo() == []


class TestWatermarks:
    def test_monotone_sources_pass(self):
        spans = [_span("source", origin="S1", oseq=i) for i in range(5)]
        assert InvariantChecker(spans).check_watermarks() == []

    def test_source_regression_is_flagged(self):
        spans = [
            _span("source", origin="S1", oseq=5),
            _span("source", origin="S1", oseq=4),
        ]
        violations = InvariantChecker(spans).check_watermarks()
        assert len(violations) == 1
        assert "strictly increasing" in violations[0].message

    def test_covered_skip_passes(self):
        # Original applied update, then the replayed copy is skipped.
        spans = [
            _execute("m0", 0, 7),                 # original: applied
            _execute("m0", 0, 7),                 # replay: about to skip
            _span("dedup", machine="m0", op="U1", key="k0", origin="S1",
                  oseq=7, decision="skip"),
        ]
        assert InvariantChecker(spans).check_watermarks() == []

    def test_uncovered_skip_is_flagged(self):
        # A skip with no applied update to justify it = lost data.
        spans = [
            _execute("m0", 0, 7),                 # the skipped delivery
            _span("dedup", machine="m0", op="U1", key="k0", origin="S1",
                  oseq=7, decision="skip"),
        ]
        violations = InvariantChecker(spans).check_watermarks()
        assert len(violations) == 1
        assert "no earlier applied update" in violations[0].message


class TestTwoChoice:
    def test_two_queues_pass(self):
        spans = [_enqueue("m0", w, i) for i, w in enumerate([0, 1, 0, 1])]
        assert InvariantChecker(spans).check_two_choice() == []

    def test_third_queue_is_flagged(self):
        spans = [_enqueue("m0", w, i) for i, w in enumerate([0, 1, 2])]
        violations = InvariantChecker(spans).check_two_choice()
        assert len(violations) == 1
        assert "two-choice" in violations[0].message

    def test_ring_change_resets_the_window(self):
        spans = [
            _enqueue("m0", 0, 1), _enqueue("m0", 1, 2),
            _span("ring_change", change="exclude", machine="m1"),
            _enqueue("m0", 2, 3), _enqueue("m0", 3, 4),
        ]
        assert InvariantChecker(spans).check_two_choice() == []

    def test_other_machines_are_independent(self):
        spans = [
            _enqueue("m0", 0, 1), _enqueue("m0", 1, 2),
            _enqueue("m1", 2, 3),
        ]
        assert InvariantChecker(spans).check_two_choice() == []


class TestRingOwnership:
    def _flush(self, machine, key="k0"):
        return _span("slate_flush", updater="U1", key=key, machine=machine)

    def test_single_owner_passes(self):
        spans = [self._flush("m0"), self._flush("m0")]
        assert InvariantChecker(spans).check_ring_ownership() == []

    def test_two_owners_in_one_epoch_flagged(self):
        spans = [self._flush("m0"), self._flush("m1")]
        violations = InvariantChecker(spans).check_ring_ownership()
        assert len(violations) == 1
        assert "orphaned cache copy" in violations[0].message

    def test_ownership_may_move_across_ring_changes(self):
        spans = [
            self._flush("m0"),
            _span("ring_change", change="exclude", machine="m0"),
            self._flush("m1"),
        ]
        assert InvariantChecker(spans).check_ring_ownership() == []

    def test_unattributed_flushes_are_ignored(self):
        # Spans without a machine field (older traces) cannot be
        # ownership-checked.
        spans = [
            _span("slate_flush", updater="U1", key="k0"),
            _span("slate_flush", updater="U1", key="k0"),
        ]
        assert InvariantChecker(spans).check_ring_ownership() == []


class TestCheckTrace:
    def test_malformed_span_raises(self):
        with pytest.raises(AnalysisError, match="malformed trace"):
            check_trace([{"kind": "execute"}])  # no ts
        with pytest.raises(AnalysisError, match="malformed trace"):
            check_trace(["not-a-span"])

    def test_unknown_check_name_raises(self):
        with pytest.raises(AnalysisError, match="unknown invariant"):
            check_trace([], checks=["nonsense"])

    def test_missing_jsonl_file_raises(self):
        with pytest.raises(AnalysisError, match="cannot read"):
            check_trace("/nonexistent/trace.jsonl")

    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        spans = [_enqueue("m0", 0, 1), _execute("m0", 0, 1)]
        path.write_text("\n".join(json.dumps(s) for s in spans) + "\n")
        assert check_trace(str(path)) == []

    def test_a_ring_that_dropped_spans_is_refused(self):
        # A clean verdict on the tail of a run would be a false one.
        tracer = RingTracer(capacity=2)
        for oseq in (1, 2, 3):
            tracer.emit(0.0, "source", origin="S1", oseq=oseq)
        with pytest.raises(AnalysisError, match="dropped 1 spans"):
            check_trace(tracer)

    def test_subset_of_checks(self):
        # An inversion is visible to fifo but not to two_choice.
        spans = [
            _enqueue("m0", 0, 1), _enqueue("m0", 0, 2),
            _execute("m0", 0, 2), _execute("m0", 0, 1),
        ]
        assert check_trace(spans, checks=["two_choice"]) == []
        assert len(check_trace(spans, checks=["fifo"])) == 1


class TestE6dChaosTrace:
    """The acceptance gate: the chaos scenario's real trace is clean,
    and a hand-corrupted copy of it is not."""

    @pytest.fixture(scope="class")
    def trace(self):
        runtime, _ = recover_run("crash", delivery_semantics="effectively-once",
                                 trace=True, trace_capacity=262_144)
        return runtime.tracer.spans()

    def test_real_trace_has_no_violations(self, trace):
        violations = check_trace(trace)
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_trace_crosses_failure_and_recovery(self, trace):
        changes = [s for s in trace if s["kind"] == "ring_change"]
        assert [c["change"] for c in changes] == ["exclude", "restore"]
        assert any(s["kind"] == "dedup" and s.get("decision") == "skip"
                   for s in trace)

    def test_corrupted_ownership_is_caught(self, trace):
        corrupted = [dict(s) for s in trace]
        flushes = [s for s in corrupted
                   if s["kind"] == "slate_flush" and "machine" in s]
        assert flushes
        flushes[0]["machine"] = "m-intruder"
        violations = check_trace(corrupted, checks=["ring_ownership"])
        assert violations
        assert "m-intruder" in violations[0].message

    def test_corrupted_order_is_caught(self, trace):
        corrupted = [dict(s) for s in trace]
        executes = [i for i, s in enumerate(corrupted)
                    if s["kind"] == "execute"]
        # Swap two executes on the same queue: a FIFO inversion.
        by_queue = {}
        pair = None
        for i in executes:
            queue = (corrupted[i].get("machine"), corrupted[i].get("worker"))
            if queue in by_queue:
                pair = (by_queue[queue], i)
                break
            by_queue[queue] = i
        assert pair is not None
        a, b = pair
        corrupted[a], corrupted[b] = corrupted[b], corrupted[a]
        assert check_trace(corrupted, checks=["fifo"])

    def test_first_violation_carries_a_chain(self, trace):
        corrupted = [dict(s) for s in trace]
        sources = [s for s in corrupted if s["kind"] == "source"]
        # Replay the first source span at the end: an oseq regression
        # with full provenance, so the chain reconstructs.
        corrupted.append(dict(sources[0]))
        violations = check_trace(corrupted, checks=["watermarks"])
        assert violations
        assert violations[0].chain, "first violation should carry a chain"
        formatted = violations[0].format()
        assert "event chain" in formatted


def _handoff(updater="U1", key="k0", src="m0", receiver="m1", epoch=1,
             ts=1.0):
    return _span("handoff", ts=ts, updater=updater, key=key, src=src,
                 machine=receiver, epoch=epoch)


class TestMigrationInvariant:
    def test_single_receiver_passes(self):
        spans = [_span("ring_change"), _handoff(),
                 _handoff(key="k1")]
        assert InvariantChecker(spans).check_migration() == []

    def test_two_receivers_in_one_epoch_flagged(self):
        spans = [_span("ring_change"), _handoff(receiver="m1"),
                 _handoff(receiver="m2")]
        violations = InvariantChecker(spans).check_migration()
        assert len(violations) == 1
        assert "exactly one receiver" in violations[0].message

    def test_rehandoff_across_migration_epochs_passes(self):
        # m1 takes k0 in migration epoch 1, hands it on in epoch 2.
        spans = [_span("ring_change"), _handoff(receiver="m1", epoch=1),
                 _span("ring_change"),
                 _handoff(src="m1", receiver="m2", epoch=2)]
        assert InvariantChecker(spans).check_migration() == []

    def test_donor_execute_after_handoff_flagged(self):
        spans = [_span("ring_change"), _handoff(src="m0"),
                 _execute("m0", 0, 9)]
        violations = InvariantChecker(spans).check_migration()
        assert len(violations) == 1
        assert "after handing it off" in violations[0].message

    def test_donor_flush_after_handoff_flagged(self):
        spans = [_span("ring_change"), _handoff(src="m0"),
                 _span("slate_flush", ts=1.1, updater="U1", key="k0",
                       machine="m0")]
        assert len(InvariantChecker(spans).check_migration()) == 1

    def test_receiver_activity_after_handoff_passes(self):
        spans = [_span("ring_change"), _handoff(src="m0", receiver="m1"),
                 _execute("m1", 0, 9),
                 _span("slate_flush", ts=1.1, updater="U1", key="k0",
                       machine="m1")]
        assert InvariantChecker(spans).check_migration() == []

    def test_donor_regains_slate_after_next_ring_change(self):
        # The receiver later retires and hands the slate back; the
        # donor legitimately executes in the new ring epoch.
        spans = [_span("ring_change"), _handoff(src="m0", receiver="m1"),
                 _span("ring_change"),
                 _handoff(src="m1", receiver="m0", epoch=2),
                 _execute("m0", 0, 9)]
        assert InvariantChecker(spans).check_migration() == []


class TestE24MigrationTrace:
    """The live-handoff scenario's real trace is clean, and a
    hand-corrupted copy of it is not."""

    @pytest.fixture(scope="class")
    def trace(self):
        runtime, _ = e24_migration_run()
        return runtime.tracer.spans()

    def test_real_trace_has_no_violations(self, trace):
        violations = check_trace(
            trace, checks=["fifo", "watermarks", "two_choice",
                           "ring_ownership", "migration"])
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_trace_records_the_handoff(self, trace):
        handoffs = [s for s in trace if s["kind"] == "handoff"]
        assert handoffs and all(s["src"] == "m001" for s in handoffs)
        phases = [s["phase"] for s in trace if s["kind"] == "migration"]
        assert phases[0] == "plan" and "cutover" in phases

    def test_corrupted_double_owner_is_caught(self, trace):
        corrupted = [dict(s) for s in trace]
        handoff = next(s for s in corrupted if s["kind"] == "handoff")
        forged = dict(handoff)
        forged["machine"] = "m-intruder"
        corrupted.append(forged)
        violations = check_trace(corrupted, checks=["migration"])
        assert violations
        assert "m-intruder" in violations[0].message
