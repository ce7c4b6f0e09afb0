"""Tracer sinks and full-chain reconstruction on a simulated chaos run."""

import io
import json

import pytest

from repro.cluster import ClusterSpec
from repro.errors import ConfigurationError
from repro.faults import FaultSchedule
from repro.obs import (JsonlTracer, RingTracer, read_jsonl,
                       reconstruct_chain)
from repro.sim import SimConfig, SimRuntime, constant_rate
from repro.slates.manager import FlushPolicy
from tests.conftest import build_count_app


class TestRingTracer:
    def test_emit_and_spans(self):
        tracer = RingTracer()
        tracer.emit(1.0, "source", sid="S1", origin="S1", oseq=0)
        spans = tracer.spans()
        assert spans == [{"ts": 1.0, "kind": "source", "sid": "S1",
                          "origin": "S1", "oseq": 0}]

    def test_bounded_with_drop_count(self):
        tracer = RingTracer(capacity=2)
        for i in range(5):
            tracer.emit(float(i), "enqueue")
        assert len(tracer) == 2
        assert tracer.dropped == 3
        assert [span["ts"] for span in tracer.spans()] == [3.0, 4.0]

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            RingTracer(capacity=0)


class TestJsonlTracer:
    def test_writes_one_json_object_per_line(self):
        buffer = io.StringIO()
        tracer = JsonlTracer(buffer)
        tracer.emit(0.5, "kv_write", row="k1", column="U1", acks=2)
        tracer.emit(0.6, "slate_flush", row="k1", column="U1")
        tracer.close()
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["kind"] == "kv_write"
        assert tracer.written == 2

    def test_path_round_trip(self, tmp_path):
        path = str(tmp_path / "run.trace.jsonl")
        with JsonlTracer(path) as tracer:
            tracer.emit(1.0, "source", origin="S1", oseq=3)
        spans = read_jsonl(path)
        assert spans == [{"ts": 1.0, "kind": "source", "origin": "S1",
                          "oseq": 3}]

    def test_lazy_open_writes_nothing_without_spans(self, tmp_path):
        path = tmp_path / "empty.trace.jsonl"
        JsonlTracer(str(path)).close()
        assert not path.exists()


def run_traced_chaos(**config_kwargs):
    config = SimConfig(flush_policy=FlushPolicy.every(0.2),
                       queue_capacity=100_000,
                       kill_kv_on_machine_failure=True,
                       trace=True, trace_capacity=2_000_000,
                       **config_kwargs)
    source = constant_rate("S1", rate_per_s=2000.0, duration_s=3.0,
                           key_fn=lambda i: f"k{i % 64}")
    chaos = FaultSchedule(seed=7).crash(1.05, "m001", recover_at=2.0)
    runtime = SimRuntime(build_count_app(), ClusterSpec.uniform(4, cores=4),
                         config, [source], failures=chaos)
    runtime.run(6.0)
    return runtime


class TestChainReconstruction:
    def test_full_chain_on_chaos_run(self):
        """The acceptance path: source -> dispatch -> update execute ->
        slate flush -> kv replica write, joined by (origin, oseq) and
        the slate's (row, column) address."""
        runtime = run_traced_chaos()
        spans = runtime.tracer.spans()
        kinds = {span["kind"] for span in spans}
        assert {"source", "dispatch", "enqueue", "execute", "publish",
                "slate_flush", "kv_write"} <= kinds

        source = next(s for s in spans if s["kind"] == "source")
        chain = reconstruct_chain(spans, source["origin"], source["oseq"])
        chain_kinds = [span["kind"] for span in chain]
        for needed in ("source", "dispatch", "execute", "slate_flush",
                       "kv_write"):
            assert needed in chain_kinds, (needed, chain_kinds)
        # Time-ordered, and the update execute precedes its flush.
        assert [s["ts"] for s in chain] == sorted(s["ts"] for s in chain)
        update = next(s for s in chain if s["kind"] == "execute"
                      and "row" in s)
        flush = next(s for s in chain if s["kind"] == "slate_flush")
        assert flush["ts"] >= update["ts"]
        assert (flush["row"], flush["column"]) == (update["row"],
                                                   update["column"])

    def test_chain_crosses_operator_hops_with_dedup_provenance(self):
        """Under effectively-once delivery, derived events carry chained
        origins; the chain must still reconstruct (both the publish-edge
        and the derived-origin joins agree)."""
        runtime = run_traced_chaos(delivery_semantics="effectively-once")
        spans = runtime.tracer.spans()
        assert any(">" in str(s.get("origin", "")) for s in spans)
        source = next(s for s in spans if s["kind"] == "source")
        chain = reconstruct_chain(spans, source["origin"], source["oseq"])
        ops = {s.get("op") for s in chain if s["kind"] == "execute"}
        assert {"M1", "U1"} <= ops

    def test_dedup_spans_on_replayed_events(self):
        """A chaos run under at-least-once replay emits dedup decisions
        (skip or reapply) for replayed events."""
        runtime = run_traced_chaos(delivery_semantics="effectively-once")
        decisions = {s["decision"] for s in runtime.tracer.spans()
                     if s["kind"] == "dedup"}
        assert decisions <= {"skip", "reapply"}
        assert decisions, "chaos replay produced no dedup decisions"


class TestJsonlOnRuntime:
    def test_runtime_accepts_injected_jsonl_tracer(self, tmp_path):
        path = str(tmp_path / "chaos.trace.jsonl")
        config = SimConfig(trace=True)
        source = constant_rate("S1", rate_per_s=500.0, duration_s=0.5,
                               key_fn=lambda i: f"k{i % 8}")
        tracer = JsonlTracer(path)
        runtime = SimRuntime(build_count_app(),
                             ClusterSpec.uniform(2, cores=2), config,
                             [source], tracer=tracer)
        runtime.run(2.0)
        tracer.close()
        spans = read_jsonl(path)
        assert len(spans) == tracer.written
        source_span = next(s for s in spans if s["kind"] == "source")
        chain = reconstruct_chain(spans, source_span["origin"],
                                  source_span["oseq"])
        assert [s["kind"] for s in chain][0] == "source"
