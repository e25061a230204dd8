"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    repro-experiments --list
    repro-experiments fig6 fig7          # run two experiments
    repro-experiments --all --full       # everything, full effort
    repro-experiments --all --jobs 8     # fan cells out over 8 processes
    repro-experiments fig14 --out results/
    repro-experiments fig6 --metrics-out metrics.prom
    repro-experiments --all --live       # the batch's progress on stderr
    repro-experiments fig6 --trace-decisions 0.05 \\
        --metrics-out m.prom --decision-trace-out decisions.jsonl
    repro-experiments serve --metrics-port 0 --slo-out slo.json
    repro-experiments serve-bench --seed 11 --ops 4000 --out slo.json
    repro-experiments serve-bench --overload   # bounded-p99 demo
    repro-experiments report results/run_summary.json
    repro-experiments report --diff OLD.json NEW.json
    repro-experiments chaos --seeds 1 7 --jobs 4 --out chaos.json --live

One parser with five subcommands — ``run``, ``chaos``, ``serve``,
``serve-bench`` and ``report`` — and ``run`` is the default: a command
line that does not start with a subcommand is ``run``'s, so
``repro-experiments fig6`` is ``repro-experiments run fig6``.  A flag
that means the same thing to several subcommands (``--jobs``,
``--live``, and ``--policy`` and ``--rate-limit`` of ``serve`` and
``serve-bench``) is declared once and shared.

Each experiment prints a paper-style text table and (with ``--out``)
writes a JSON result file for archival/plotting.  ``--metrics-out``
attaches a :class:`~repro.obs.hub.MetricsHub` to every executor cell
and writes the merged metrics as Prometheus text exposition (plus a
``.jsonl`` snapshot stream next to it); the figure JSON itself is
byte-identical with or without metrics attached.

The chosen experiments run as **one suite**: the union of every
figure's declared items — grid cells, Fig. 10's adaptive runs, the
recovery ablation's crash/recover pairs — is one batch (``--jobs N``
fans it over one persistent worker pool), so a cell that several
figures declare (Table 2's grid is Figs. 6-8's) is simulated once and
its result handed to each.  Once the batch ends, each figure reduces its results, then
prints and saves, in paper order; ``--live`` is how to watch the batch
progress.  Output (tables, JSON files, metrics exports) stays
byte-identical to running each experiment alone.

The ``chaos`` subcommand runs the crash-consistency matrix instead of
an experiment: every consistency-relevant boundary of a deterministic
reference workload gets a crash-and-recover replay, with WAL-tail and
torn-page hazards layered on top (see ``docs/FAULTS.md``), as one
batch of crash cases.  The JSON report is byte-identical for any
``--jobs`` value.

The live telemetry plane rides strictly out-of-band of all of this:
``--live`` keeps one stderr line of the batch's progress (items
finished of total, ETA), counted in the parent as results come back;
``--trace-decisions FRAC`` records a sampled trace of the migration
engine's admit/deny decisions; the ``report`` subcommand renders the
``run_summary.json`` a run leaves under ``--out`` and diffs two
``BENCH_repro.json``-style wall-clock reports into a regression table.
None of it changes result bytes — ``check_golden_figures.py
--with-telemetry`` regenerates figures with every observer attached and
requires identical JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import time
from functools import partial
from pathlib import Path

from .bench.experiments import REGISTRY, selection_error
from .core.policy import POLICY_PRESETS

#: The subcommands; a command line that starts with anything else is
#: ``run``'s.
COMMANDS = ("run", "chaos", "serve", "serve-bench", "report")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in (*COMMANDS, "-h", "--help"):
        argv = ["run", *argv]
    args = build_parser().parse_args(argv)
    status = args.handler(args)
    _print(end="", flush=True)  # a reader gone by now costs no traceback
    return status


def _print(*values, **kwargs) -> None:
    """``print`` to stdout that outlives its reader.

    Once the reader has gone (``repro-experiments ... | head -1``),
    stdout is pointed at the null device and the command carries on: a
    closed pipe never costs an ``--out`` artefact and prints no
    traceback.
    """
    try:
        print(*values, **kwargs)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _checked(convert, accept, expected: str):
    """An argparse ``type=``: convert, then refuse what ``accept`` does not
    take, so a bad value is a one-line usage error and not a traceback."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(
                f"expected {expected}, got {text!r}")
        return value

    return parse


_positive_int = _checked(int, lambda value: value > 0, "a positive integer")
_positive_float = _checked(float, lambda value: 0 < value < math.inf,
                           "a positive number")
_non_negative_float = _checked(float, lambda value: 0 <= value < math.inf,
                               "a non-negative number")
_probability = _checked(float, lambda value: 0 <= value <= 1,
                        "a probability in [0, 1]")
_port = _checked(int, lambda value: 0 <= value <= 65535,
                 "a port in 0..65535")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-experiments`` parser; each subcommand's ``handler``
    takes its own parser (for usage errors) and the parsed arguments."""
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", "-j", type=_positive_int, default=1,
                      metavar="N",
                      help="worker processes (default: 1; the output is "
                           "byte-identical at any count)")
    live = argparse.ArgumentParser(add_help=False)
    live.add_argument("--live", action="store_true",
                      help="show the batch's progress (done of total, "
                           "ETA) on stderr while it runs (the output is "
                           "unchanged)")
    serving = argparse.ArgumentParser(add_help=False)
    serving.add_argument("--policy", choices=tuple(POLICY_PRESETS),
                           default="Spitfire-Eager",
                           help="Table 3 policy preset (default: "
                                "Spitfire-Eager)")
    serving.add_argument("--rate-limit", type=_positive_float,
                           default=None, metavar="OPS_PER_S",
                           help="per-tenant token-bucket rate (default: off)")

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the Spitfire (SIGMOD '21) evaluation.",
        epilog="Without a command the arguments are run's: "
               "`repro-experiments fig6 fig7` is `repro-experiments run "
               "fig6 fig7`.",
    )
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND")

    run = commands.add_parser(
        "run", parents=[jobs, live],
        help="regenerate tables and figures (the default)",
        description="Regenerate the paper's tables and figures.")
    run.set_defaults(handler=partial(_run, run))
    run.add_argument("experiments", nargs="*",
                     help="experiment ids (e.g. fig6 table2)")
    run.add_argument("--all", action="store_true",
                     help="run every experiment in paper order")
    run.add_argument("--list", action="store_true",
                     help="list available experiment ids")
    run.add_argument("--full", action="store_true",
                     help="full effort (longer runs, more points)")
    run.add_argument("--trace-decisions", type=float, default=0.0,
                     metavar="FRAC",
                     help="record migration/admission/eviction decision "
                          "spans for a hash-sampled page fraction "
                          "(0 <= FRAC <= 1, 0 = off; result JSON is "
                          "unchanged)")
    run.add_argument("--out", metavar="DIR",
                     help="directory for JSON result files (plus a "
                          "run_summary.json digest for the report "
                          "subcommand)")
    run.add_argument("--metrics-out", metavar="PATH",
                     help="collect per-cell metrics and write Prometheus "
                          "text exposition to PATH (and a JSONL snapshot "
                          "stream to PATH with a .jsonl suffix)")
    run.add_argument("--decision-trace-out", metavar="PATH",
                     help="write the sampled decision spans as JSONL to "
                          "PATH (implies per-cell collection; needs "
                          "--trace-decisions to record anything)")

    chaos = commands.add_parser(
        "chaos", parents=[jobs, live],
        help="the crash-consistency matrix",
        description="Replay a deterministic workload, crashing at every "
                    "consistency-relevant boundary, and assert the ACID "
                    "invariant catalogue after recovery.")
    chaos.set_defaults(handler=partial(_chaos, chaos))
    chaos.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 23],
                       metavar="N", help="workload seeds (default: 1 7 23)")
    chaos.add_argument("--policies", nargs="+",
                       default=["DRAM_SSD", "SPITFIRE_LAZY", "SPITFIRE_EAGER"],
                       metavar="P", help="migration policies to cover")
    chaos.add_argument("--no-tail-faults", action="store_true",
                       help="clean crashes only (skip torn-write, "
                            "dropped-persist, and torn-page hazards)")
    chaos.add_argument("--read-error-rate", type=_probability, default=0.0,
                       metavar="R", help="live transient read-fault rate "
                                         "during the workload (default: 0)")
    chaos.add_argument("--write-error-rate", type=_probability, default=0.0,
                       metavar="R", help="live transient write-fault rate "
                                         "during the workload (default: 0)")
    chaos.add_argument("--out", metavar="PATH",
                       help="write the JSON report to PATH")

    serve = commands.add_parser(
        "serve", parents=[serving],
        help="the live serving plane",
        description="Serve one shared three-tier buffer manager to "
                    "concurrent client sessions until SIGTERM.")
    serve.set_defaults(handler=partial(_serve, serve))
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=_port, default=0,
                       help="port to serve on (default: 0 = pick free)")
    serve.add_argument("--metrics-port", type=_port, default=None,
                       metavar="PORT",
                       help="serve /metrics, /healthz, /readyz on PORT "
                            "(0 = pick free; default: no endpoint)")
    serve.add_argument("--dram-gb", type=_non_negative_float, default=0.5)
    serve.add_argument("--nvm-gb", type=_non_negative_float, default=2.0)
    serve.add_argument("--ssd-gb", type=_non_negative_float, default=8.0)
    serve.add_argument("--tenants", type=_positive_int, default=4,
                       metavar="N",
                       help="tenant count sessions may hello as "
                            "(default: 4)")
    serve.add_argument("--seed", type=int, default=42)
    serve.add_argument("--slo-out", metavar="PATH",
                       help="write the shutdown SLO report to PATH")
    serve.add_argument("--fault-seed", type=int, default=None, metavar="N",
                       help="inject seeded device faults under the live "
                            "load (chaos mode)")
    serve.add_argument("--fault-rate", type=_probability, default=0.01,
                       metavar="R",
                       help="transient read/write fault rate in chaos "
                            "mode (default: 0.01)")

    bench = commands.add_parser(
        "serve-bench", parents=[serving],
        help="deterministic serving SLOs in virtual time",
        description="Measure serving SLOs (latency quantiles, shed "
                    "rate, goodput) deterministically in virtual time.")
    bench.set_defaults(handler=partial(_serve_bench, bench))
    bench.add_argument("--seed", type=int, default=11)
    bench.add_argument("--ops", type=_positive_int, default=4_000,
                       metavar="N",
                       help="total arrivals across the fleet "
                            "(default: 4000)")
    bench.add_argument("--rate", type=_positive_float, default=40_000.0,
                       metavar="OPS_PER_S",
                       help="aggregate arrival rate (default: 40000)")
    # Only the virtual-time twin queues arrivals, so only it has a queue
    # depth to bound and a shedding A-B to run; live, an op runs the
    # moment it is admitted.
    bench.add_argument("--max-queue-depth", type=_positive_int,
                       default=64, metavar="N",
                       help="per-tenant admitted-but-unfinished cap; "
                            "beyond it arrivals shed (default: 64)")
    bench.add_argument("--no-admission", action="store_true",
                       help="disable shedding (unbounded queueing; for "
                            "the overload comparison only)")
    bench.add_argument("--overload", action="store_true",
                       help="run the overload comparison: admission on vs "
                            "off, arrivals far past the service capacity")
    bench.add_argument("--out", metavar="PATH",
                       help="write the SLO report JSON to PATH")

    report = commands.add_parser(
        "report", help="render a run summary or diff two reports",
        description="Render a run_summary.json digest, or --diff two "
                    "BENCH_repro.json-style reports into a regression "
                    "table (exit 1 on regressions).")
    report.set_defaults(handler=partial(_report, report))
    report.add_argument("summary", nargs="?",
                        help="run_summary.json written by a --out run")
    report.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="diff two BENCH_repro.json-style files")
    report.add_argument("--tolerance", type=_non_negative_float,
                        default=0.10, metavar="FRAC",
                        help="relative move a direction-aware metric may "
                             "make before --diff flags it (default: 0.10)")
    report.add_argument("--show-unchanged", action="store_true",
                        help="include rows within tolerance in the table")
    return parser


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def _run(parser, args) -> int:
    """``repro-experiments [run]``: regenerate tables and figures."""
    if args.list:
        if args.experiments or args.all:
            parser.error("--list takes no experiment ids and no --all")
        for experiment_id in REGISTRY:
            _print(experiment_id)
        return 0

    chosen = list(REGISTRY) if args.all else args.experiments
    if not chosen:
        parser.error("no experiments selected (use ids, --all, or --list)")
    error = selection_error(chosen)
    if error:
        parser.error(error)
    options = options_from_args(parser, args)

    from .bench.executor import run_options

    collect = bool(args.metrics_out or args.decision_trace_out)
    sink: list = []
    line = None
    with contextlib.ExitStack() as stack:
        stack.enter_context(run_options(options, collect_metrics=collect))
        if args.live:
            from .bench.telemetry import live_progress

            line = stack.enter_context(live_progress())
        records, simulate_s = _run_experiments(chosen, args, sink)
    if args.metrics_out:
        _export_metrics(args.metrics_out, sink)
    if args.decision_trace_out:
        _export_decision_traces(args.decision_trace_out, sink)
    if args.out:
        _write_run_summary(args.out, records, simulate_s,
                           sink if collect else None, line)
    return 0


def options_from_args(parser, args):
    """The :class:`RunOptions` the parsed flags ask for.

    Every parsed attribute named after a ``RunOptions`` field sets it
    (``check_golden_figures.py`` gives its ``--with-*`` flags such
    ``dest`` names and builds its value here too); a value
    ``RunOptions`` rejects is a usage error.  ``--live`` is no run
    option: the parent counts what finishes
    (:func:`~repro.bench.telemetry.live_progress`).
    """
    from .bench.harness import RunOptions

    chosen = {
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(RunOptions)
        if hasattr(args, field.name)
    }
    try:
        return RunOptions(**chosen)
    except ValueError as exc:
        parser.error(str(exc))


def _run_experiments(chosen: list[str], args,
                     sink: list) -> tuple[list, float]:
    """Run the selected experiments as one suite; returns one summary
    record each, and the batch's wall time.

    The union of their items is one batch (an item several figures
    declare is simulated once); then each figure, in paper order, is
    reduced, printed and saved, and — when metrics are collected — its
    cells' ``(label, RunResult)`` pairs are appended to ``sink``.  A
    record holds id, title, reduce time, series/point counts, items
    declared and reused, and decision digest, for the run summary.
    """
    from .bench.experiments import run_suite

    figures, simulate_s = run_suite([REGISTRY[e] for e in chosen],
                                    quick=not args.full, jobs=args.jobs)
    records: list = []
    for experiment_id, figure in zip(chosen, figures):
        result = figure.result
        record = {
            "experiment_id": experiment_id,
            "title": result.title,
            "elapsed_s": figure.elapsed_s,
            "series": len(result.series),
            "points": sum(len(s.points) for s in result.series.values()),
            "cells": len(figure.runs),
            "reused": figure.reused,
        }
        collected = [pair for pair in figure.cell_runs
                     if pair[1].metrics is not None]
        sink.extend(collected)
        digest = _decision_digest(collected)
        if digest is not None:
            record["decisions"] = digest
        records.append(record)
        _print(result.render())
        _print(f"   [{experiment_id} took {figure.elapsed_s:.1f}s]\n")
        if args.out:
            path = result.save_json(args.out)
            _print(f"   saved {path}")
    reused = sum(record["reused"] for record in records)
    simulated = sum(record["cells"] for record in records) - reused
    _print(f"   [{simulated} cells simulated, {reused} reused: "
          f"the batch took {simulate_s:.1f}s]")
    return records, simulate_s


def _decision_digest(sink) -> dict | None:
    """Aggregate per-cell decision-trace summaries, or None if untraced."""
    cells = spans = dropped = 0
    fraction = None
    for _, result in sink:
        trace = getattr(result, "decision_trace", None)
        if not trace:
            continue
        summary = trace["summary"]
        cells += 1
        spans += summary["spans_recorded"]
        dropped += summary["spans_dropped"]
        fraction = summary["sample_fraction"]
    if not cells:
        return None
    return {
        "cells": cells,
        "spans_recorded": spans,
        "spans_dropped": dropped,
        "sample_fraction": fraction,
    }


def _export_metrics(out_path: str, sink) -> None:
    """Merge per-cell metrics and write Prometheus + JSONL files."""
    from .core.stats import BufferStats
    from .obs.export import (
        merge_snapshots,
        snapshot_jsonl_lines,
        write_jsonl,
        write_prometheus,
    )
    from .obs.metrics import Histogram

    merged = merge_snapshots(result.metrics for _, result in sink)
    path = write_prometheus(out_path, merged)
    lines: list[str] = []
    totals = BufferStats()
    for label, result in sink:
        lines.extend(snapshot_jsonl_lines(result.metrics, label))
        totals.merge(result.stats)
    jsonl_path = write_jsonl(Path(out_path).with_suffix(".jsonl"), lines)
    latency_count = sum(
        series.count for series in merged.series()
        if isinstance(series, Histogram) and series.name == "op_latency_ns"
    )
    _print(f"   metrics: {len(sink)} cell(s), "
          f"op_latency_ns count={latency_count}, "
          f"stats reads+writes={totals.reads + totals.writes}")
    _print(f"   wrote {path} and {jsonl_path}")


def _export_decision_traces(out_path: str, sink) -> None:
    """Write every cell's sampled decision spans as one JSONL stream."""
    from .obs.decisions import decision_trace_jsonl_lines
    from .obs.export import write_jsonl

    lines: list[str] = []
    cells = 0
    for label, result in sink:
        trace = getattr(result, "decision_trace", None)
        if not trace:
            continue
        cells += 1
        lines.extend(decision_trace_jsonl_lines(trace, label))
    path = write_jsonl(out_path, lines)
    _print(f"   decision trace: {cells} cell(s), {len(lines)} span(s) "
          f"-> {path}")


def _write_run_summary(out_dir: str, records: list, simulate_s: float,
                       sink, line) -> None:
    """Drop ``run_summary.json`` next to the per-figure JSON files."""
    from .bench.reporting import build_run_summary
    from .obs.export import merge_snapshots

    registry = None
    if sink is not None:
        registry = merge_snapshots(result.metrics for _, result in sink)
    summary = build_run_summary(
        records, simulate_s=simulate_s, registry=registry,
        telemetry=line.summary() if line is not None else None,
        generated_at=time.time(),
    )
    path = Path(out_dir) / "run_summary.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _print(f"   saved {path}")


# ----------------------------------------------------------------------
# chaos
# ----------------------------------------------------------------------
def _chaos(parser, args) -> int:
    """``repro-experiments chaos``: the crash-consistency matrix."""
    from .bench.telemetry import live_progress
    from .faults.crashpoints import (
        POLICIES,
        render_matrix_json,
        run_crash_matrix,
    )

    unknown = [p for p in args.policies if p not in POLICIES]
    if unknown:
        parser.error(
            f"unknown policy(ies): {', '.join(unknown)}; "
            f"choose from {', '.join(POLICIES)}"
        )
    for flag, values in (("--seeds", args.seeds),
                         ("--policies", args.policies)):
        twice = sorted({v for v in values if values.count(v) > 1},
                       key=values.index)
        if twice:
            parser.error(f"argument {flag}: "
                         f"{', '.join(map(str, twice))} named twice")

    started = time.time()
    # Every CrashCase is one item of one executor batch over the
    # persistent pool (the report stays byte-identical at any --jobs).
    with live_progress() if args.live else contextlib.nullcontext():
        report = run_crash_matrix(
            policies=tuple(args.policies),
            seeds=tuple(args.seeds),
            jobs=args.jobs,
            with_tail_faults=not args.no_tail_faults,
            read_error_rate=args.read_error_rate,
            write_error_rate=args.write_error_rate,
        )
    elapsed = time.time() - started

    kinds = ", ".join(f"{kind}={count}"
                      for kind, count in report["boundary_kinds"].items())
    _print(f"chaos: {report['total_cases']} crash case(s) over "
          f"{len(report['policies'])} policy(ies) x "
          f"{len(report['seeds'])} seed(s)  [{elapsed:.1f}s]")
    _print(f"   boundaries: {kinds}")
    if report["ok"]:
        _print("   all invariants held: OK")
    else:
        for case_id in report["failures"]:
            _print(f"   FAILED {case_id}")
    if args.out:
        Path(args.out).write_text(render_matrix_json(report) + "\n")
        _print(f"   saved {args.out}")
    return 0 if report["ok"] else 1


# ----------------------------------------------------------------------
# serve and serve-bench
# ----------------------------------------------------------------------
def _serve(parser, args) -> int:
    """``repro-experiments serve``: the live serving plane.

    Starts one shared buffer manager behind the asyncio stream server
    (see ``docs/SERVING.md`` for the wire protocol), serves until
    SIGTERM/SIGINT, then drains gracefully: the listener closes,
    admission flips to drain mode, the sessions end, dirty pages flush,
    and a final SLO report covers everything served.
    """
    import asyncio

    from .faults.plan import FaultPlan
    from .serve import ServeConfig, SpitfireServer
    from .serve.admission import AdmissionConfig
    from .serve.slo import render_slo_report

    fault_plan = None
    if args.fault_seed is not None:
        fault_plan = FaultPlan.seeded(
            args.fault_seed,
            horizon_ops=1_000_000,
            read_error_rate=args.fault_rate,
            write_error_rate=args.fault_rate,
        )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        policy=args.policy,
        dram_gb=args.dram_gb,
        nvm_gb=args.nvm_gb,
        ssd_gb=args.ssd_gb,
        num_tenants=args.tenants,
        seed=args.seed,
        admission=AdmissionConfig(rate_ops_per_s=args.rate_limit),
        fault_plan=fault_plan,
        metrics_port=args.metrics_port,
        slo_out=args.slo_out,
    )

    async def run() -> dict:
        server = SpitfireServer(config)
        await server.start()
        _print(f"   listening on {server.host}:{server.port}", flush=True)
        if server.metrics is not None:
            _print(f"   metrics at {server.metrics.url}", flush=True)
        if fault_plan is not None:
            _print(f"   chaos: fault plan seed={args.fault_seed} "
                  f"rate={args.fault_rate}", flush=True)
        server.install_signal_handlers()
        await server.wait_shutdown()
        _print("   draining...", flush=True)
        return await server.shutdown()

    summary = asyncio.run(run())
    _print(f"   drained: served={summary['served']} shed={summary['shed']} "
          f"flushed_pages={summary['flushed_pages']} "
          f"crashes={summary['crashes']}")
    _print(render_slo_report(summary["slo"]))
    if args.slo_out:
        _print(f"   saved {args.slo_out}")
    return 0


def _serve_bench(parser, args) -> int:
    """``repro-experiments serve-bench``: deterministic serving SLOs.

    The serving plane measured in virtual time: a seeded open-loop
    client fleet against the same op/admission code the live server
    runs, producing a byte-deterministic SLO report (identical
    across runs).  ``--overload`` runs the
    bounded-p99-versus-unbounded-queueing comparison instead.
    """
    from .serve.admission import AdmissionConfig
    from .serve.bench import (
        OVERLOAD_FACTOR,
        ServeBenchConfig,
        run_overload_experiment,
        run_serve_bench,
    )
    from .serve.slo import render_slo_report, slo_report_json

    config = ServeBenchConfig(
        seed=args.seed,
        total_ops=args.ops,
        rate_ops_per_s=args.rate,
        policy=args.policy,
        admission=AdmissionConfig(
            max_queue_depth=args.max_queue_depth,
            rate_ops_per_s=args.rate_limit,
            enabled=not args.no_admission,
        ),
    )
    started = time.time()
    if args.overload:
        result = run_overload_experiment(config)
        summary = result["summary"]
        on = result["legs"]["admission_on"]["totals"]
        _print(f"serve-bench overload: {on['arrivals']} arrivals at "
              f"{config.rate_ops_per_s * OVERLOAD_FACTOR:,.0f} ops/s  "
              f"[{time.time() - started:.1f}s]")
        _print(f"   admission on : shed={summary['shed_rate_on']:.1%}  "
              f"p99={summary['p99_on_ns']:,.0f}ns")
        _print(f"   admission off: shed={summary['shed_rate_off']:.1%}  "
              f"p99={summary['p99_off_ns']:,.0f}ns")
        _print(f"   bounded tail is {summary['p99_ratio']:.1f}x lower "
              f"with shedding")
        payload = result
    else:
        report = run_serve_bench(config)
        _print(f"serve-bench: seed={args.seed} ops={args.ops}  "
              f"[{time.time() - started:.1f}s]")
        _print(render_slo_report(report))
        payload = report
    if args.out:
        Path(args.out).write_text(slo_report_json(payload))
        _print(f"   saved {args.out}")
    return 0


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def _report(parser, args) -> int:
    """``repro-experiments report``: render a run summary or diff two
    wall-clock reports."""
    from .bench.reporting import (
        diff_bench_reports,
        render_bench_diff,
        render_run_summary,
    )

    def load(path: str, argument: str) -> dict:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read {path}: {exc}")
        if not isinstance(data, dict):
            parser.error(f"argument {argument}: {path} holds no JSON "
                         f"object")
        return data

    if args.diff:
        old, new = (load(path, "--diff") for path in args.diff)
        diff = diff_bench_reports(old, new, tolerance=args.tolerance)
        _print(render_bench_diff(diff, show_unchanged=args.show_unchanged))
        return 0 if diff["ok"] else 1
    if not args.summary:
        parser.error("provide a run_summary.json path or --diff OLD NEW")
    _print(render_run_summary(load(args.summary, "summary")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
