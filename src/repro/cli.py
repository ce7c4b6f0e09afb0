"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``validate`` — load an application config file, print the workflow.
* ``generate`` — write a synthetic tweet/checkin trace file.
* ``run`` — run an application over a trace on the local thread
  runtime; print counters and (optionally) dump an updater's slates.
* ``simulate`` — run an application over a trace on the simulated
  cluster; print the performance report as JSON.
* ``campaign`` — declarative parameter sweeps with committed artifacts
  (``run``/``render``/``check``/``list``; see ``repro.campaign``).

Examples::

    python -m repro generate --kind checkins --rate 500 --duration 10 \\
        --out /tmp/checkins.jsonl
    python -m repro run --app examples/configs/retailer.json \\
        --trace /tmp/checkins.jsonl --dump U1
    python -m repro simulate --app examples/configs/retailer.json \\
        --trace /tmp/checkins.jsonl --machines 8 --engine muppet2
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.configfile import load_application
from repro.errors import ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Muppet/MapUpdate reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate",
                              help="check an application config file")
    validate.add_argument("--app", required=True,
                          help="application config (JSON)")

    generate = sub.add_parser("generate",
                              help="write a synthetic event trace")
    generate.add_argument("--kind", choices=["tweets", "checkins"],
                          required=True)
    generate.add_argument("--rate", type=float, default=100.0,
                          help="events per second")
    generate.add_argument("--duration", type=float, default=10.0,
                          help="trace length in seconds")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--sid", default="S1",
                          help="stream id for the events")
    generate.add_argument("--out", required=True, help="output JSONL path")

    run = sub.add_parser("run", help="run on the local thread runtime")
    run.add_argument("--app", required=True)
    run.add_argument("--trace", required=True)
    run.add_argument("--threads", type=int, default=4,
                     help="thread-pool size (muppet2) or workers per "
                          "function (muppet1)")
    run.add_argument("--engine", choices=["muppet1", "muppet2"],
                     default="muppet2",
                     help="muppet2 = thread pool + central cache; "
                          "muppet1 = worker-per-function + conductor "
                          "pipes")
    run.add_argument("--dump", metavar="UPDATER",
                     help="print this updater's slates as JSON")

    simulate = sub.add_parser("simulate",
                              help="run on the simulated cluster")
    simulate.add_argument("--app", required=True)
    simulate.add_argument("--trace", required=True)
    simulate.add_argument("--machines", type=int, default=4)
    simulate.add_argument("--cores", type=int, default=4)
    simulate.add_argument("--engine", choices=["muppet1", "muppet2"],
                          default="muppet2")
    simulate.add_argument("--delivery",
                          choices=["at-most-once", "at-least-once",
                                   "effectively-once"],
                          default=None,
                          help="delivery semantics (default: the paper's "
                               "at-most-once)")
    simulate.add_argument("--replay-horizon", type=float, default=None,
                          metavar="SECONDS",
                          help="at-least-once replay horizon (alone, "
                               "implies --delivery at-least-once)")
    simulate.add_argument("--checkpoint-epoch", type=float, default=1.0,
                          metavar="SECONDS",
                          help="effectively-once checkpoint barrier "
                               "period (default: 1.0)")
    simulate.add_argument("--duration", type=float, default=None,
                          help="simulated seconds (default: trace span "
                               "+ 10)")
    simulate.add_argument("--trace-out", metavar="PATH", default=None,
                          help="write a JSONL span trace of the run "
                               "(source/dispatch/execute/slate/kv spans "
                               "with (origin, oseq) provenance)")
    simulate.add_argument("--metrics-out", metavar="PATH", default=None,
                          help="write the full metrics-registry snapshot "
                               "as JSON")
    simulate.add_argument("--timeline", action="store_true",
                          help="sample per-machine/per-updater "
                               "timeseries and include them in the "
                               "report JSON")

    analyze = sub.add_parser(
        "analyze",
        help="static lint, race detection, trace invariant checking")
    tool = analyze.add_subparsers(dest="tool", required=True)

    lint = tool.add_parser("lint",
                           help="run the MUP### determinism/concurrency "
                                "rules over source paths")
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      help="files or directories (default: src/repro)")
    lint.add_argument("--select", metavar="CODES", default=None,
                      help="comma-separated rule codes to run "
                           "(e.g. MUP001,MUP003)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table and exit")

    races = tool.add_parser("races",
                            help="lockset race + lock-order-cycle "
                                 "detection over an instrumented smoke "
                                 "run of both threaded worker layouts")
    races.add_argument("--events", type=int, default=2000,
                       help="events to ingest (default: 2000)")
    races.add_argument("--threads", type=int, default=4,
                       help="worker threads per layout (default: 4)")
    races.add_argument("--keys", type=int, default=16,
                       help="distinct keys (default: 16)")

    invariants = tool.add_parser(
        "invariants",
        help="replay a span trace and check FIFO/watermark/two-choice/"
             "ring-ownership (and, opt-in, shed-accounting) invariants")
    source = invariants.add_mutually_exclusive_group(required=True)
    source.add_argument("--trace", metavar="PATH",
                        help="JSONL span trace to check")
    source.add_argument("--e6d", action="store_true",
                        help="run the traced E6d chaos scenario and "
                             "check its trace")
    source.add_argument("--e22", action="store_true",
                        help="run the traced E22 overload scenario "
                             "(adaptive thinning at 5x) and check its "
                             "trace, including shed accounting")
    source.add_argument("--e24", action="store_true",
                        help="run the traced E24 live-migration "
                             "scenario (retire m001 through the "
                             "incremental handoff) and check its "
                             "trace, including the migration "
                             "invariant")
    invariants.add_argument("--checks", metavar="NAMES", default=None,
                            help="comma-separated subset (fifo, "
                                 "watermarks, two_choice, "
                                 "ring_ownership, shed_accounting, "
                                 "migration); default: all structural "
                                 "checks, plus shed_accounting for "
                                 "--e22 and migration for --e24 "
                                 "traces")
    invariants.add_argument("--overload", type=float, default=5.0,
                            help="E22 overload multiple (default: 5.0)")

    from repro.analysis.mc.cli import add_mc_parser

    add_mc_parser(tool)

    from repro.campaign.cli import add_campaign_parser

    add_campaign_parser(sub)
    return parser


def _cmd_validate(args: argparse.Namespace) -> int:
    app = load_application(args.app)
    print(f"application {app.name!r}: OK")
    print(f"  streams:   {', '.join(app.streams.sids())}")
    for spec in app.operators():
        arrow = " -> ".join(filter(None, [
            "+".join(spec.subscribes),
            spec.name,
            "+".join(spec.publishes) or None,
        ]))
        print(f"  {spec.kind:6s} {arrow}")
    print(f"  cyclic:    {app.has_cycle()}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.workloads.checkins import CheckinGenerator
    from repro.workloads.traceio import write_events
    from repro.workloads.tweets import TweetGenerator

    if args.kind == "tweets":
        generator = TweetGenerator(sid=args.sid, rate_per_s=args.rate,
                                   seed=args.seed)
    else:
        generator = CheckinGenerator(sid=args.sid, rate_per_s=args.rate,
                                     seed=args.seed)
    count = write_events(args.out, generator.events(args.duration))
    print(f"wrote {count} {args.kind} events to {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.workloads.traceio import read_events

    app = load_application(args.app)
    if args.engine == "muppet1":
        from repro.muppet.local1 import Local1Config, LocalMuppet1

        factory = LocalMuppet1(
            app, Local1Config(workers_per_function=args.threads))
    else:
        from repro.muppet.local import LocalConfig, LocalMuppet

        factory = LocalMuppet(app,
                              LocalConfig(num_threads=args.threads))
    with factory as runtime:
        accepted = runtime.ingest_many(read_events(args.trace))
        drained = runtime.drain()
        counters = runtime.counters.snapshot()
        dumped = (runtime.read_slates_of(args.dump)
                  if args.dump else None)
    print(f"engine={args.engine}; ingested {accepted} events; "
          f"drained={drained}")
    print(json.dumps(counters, indent=2))
    if runtime.operator_errors:
        print(f"operator errors: {runtime.operator_errors} "
              f"(last: {runtime.last_error!r})")
    if runtime.latency.samples:
        summary = runtime.latency.summary()
        print(f"latency: p50={summary.p50 * 1e3:.2f} ms  "
              f"p99={summary.p99 * 1e3:.2f} ms")
    if dumped is not None:
        print(json.dumps({"updater": args.dump, "slates": dumped},
                         indent=2, sort_keys=True))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterSpec
    from repro.sim import SimConfig, SimRuntime, from_trace
    from repro.workloads.traceio import read_events

    app = load_application(args.app)
    events = list(read_events(args.trace))
    if not events:
        print("trace is empty", file=sys.stderr)
        return 1
    sids = {event.sid for event in events}
    if len(sids) != 1:
        print(f"trace mixes streams {sorted(sids)}; one sid per trace",
              file=sys.stderr)
        return 1
    duration = args.duration
    if duration is None:
        duration = events[-1].ts + 10.0
    tracer = None
    if args.trace_out is not None:
        from repro.obs import JsonlTracer

        tracer = JsonlTracer(args.trace_out)
    delivery = args.delivery or (
        "at-most-once" if args.replay_horizon is None else "at-least-once")
    runtime = SimRuntime(
        app, ClusterSpec.uniform(args.machines, cores=args.cores),
        SimConfig(engine=args.engine,
                  delivery_semantics=delivery,
                  replay_horizon_s=args.replay_horizon,
                  checkpoint_epoch_s=args.checkpoint_epoch,
                  trace=tracer is not None,
                  timeline=args.timeline),
        [from_trace(events[0].sid, events)],
        tracer=tracer)
    report = runtime.run(duration)
    if tracer is not None:
        tracer.close()
        print(f"wrote {tracer.written} spans to {args.trace_out}",
              file=sys.stderr)
    if args.metrics_out is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(runtime.metrics.to_json())
        print(f"wrote metrics snapshot to {args.metrics_out}",
              file=sys.stderr)
    payload = {
        "engine": report.engine,
        "delivery": runtime.config.delivery_semantics,
        "machines": args.machines,
        "events": {
            "published": report.counters.published,
            "processed": report.counters.processed,
            "lost": report.counters.lost_total(),
        },
        "throughput_events_per_s": round(report.events_per_second(), 1),
        "latency_ms": (None if report.latency is None else {
            "p50": round(report.latency.p50 * 1e3, 3),
            "p95": round(report.latency.p95 * 1e3, 3),
            "p99": round(report.latency.p99 * 1e3, 3),
        }),
        "memory_mb_per_machine": round(report.memory_mb_per_machine, 1),
        "replay": {
            "recorded": report.replay.recorded,
            "replayed": report.replay.replayed,
            "deduped": report.replay.deduped,
            "checkpoint_epochs": report.robustness.checkpoint_epochs,
        },
    }
    if args.timeline:
        payload["timeline"] = report.timeline()
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.tool == "mc":
        from repro.analysis.mc.cli import dispatch

        return dispatch(args)

    if args.tool == "lint":
        from repro.analysis.lint import lint_paths, rule_table

        if args.list_rules:
            for code, name, description in rule_table():
                print(f"{code}  {name}: {description}")
            return 0
        select = (None if args.select is None
                  else [c.strip() for c in args.select.split(",")])
        report = lint_paths(args.paths, select=select)
        for finding in report.findings:
            print(finding.format())
        print(f"{report.files_checked} files, {report.rules_run} rules, "
              f"{len(report.findings)} findings", file=sys.stderr)
        return 1 if report.findings else 0

    if args.tool == "races":
        from repro.analysis.races import race_smoke_run

        monitor = race_smoke_run(events=args.events, threads=args.threads,
                                 keys=args.keys)
        print(monitor.report())
        return 1 if (monitor.races() or monitor.ordering_cycles()) else 0

    from repro.analysis.invariants import check_trace

    checks = (None if args.checks is None
              else [c.strip() for c in args.checks.split(",")])
    if args.e6d:
        from repro.campaign.e6_failures import recover_run

        runtime, _ = recover_run("crash",
                                 delivery_semantics="effectively-once",
                                 trace=True, trace_capacity=262_144)
        trace: object = runtime.tracer
        label = "E6d chaos trace"
    elif args.e22:
        from repro.campaign.e22_shedding import e22_overload_run

        runtime, _ = e22_overload_run(overload=args.overload, trace=True)
        trace = runtime.tracer
        label = f"E22 overload trace ({args.overload}x)"
        if checks is None:
            # Fault-free and drained, so the opt-in shed-accounting
            # check is sound here on top of the structural four.
            checks = ["fifo", "watermarks", "two_choice",
                      "ring_ownership", "shed_accounting"]
    elif args.e24:
        from repro.campaign.scenarios import e24_migration_run

        runtime, _ = e24_migration_run()
        trace = runtime.tracer
        label = "E24 live-migration trace"
        if checks is None:
            # The trace contains a full handoff, so the opt-in
            # migration check is meaningful on top of the structural
            # four.
            checks = ["fifo", "watermarks", "two_choice",
                      "ring_ownership", "migration"]
    else:
        trace = args.trace
        label = args.trace
    violations = check_trace(trace, checks=checks)
    for violation in violations:
        print(violation.format())
    print(f"{label}: {len(violations)} violations", file=sys.stderr)
    return 1 if violations else 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign.cli import dispatch

    return dispatch(args)


_COMMANDS = {
    "validate": _cmd_validate,
    "generate": _cmd_generate,
    "run": _cmd_run,
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "campaign": _cmd_campaign,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
