"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    repro-experiments --list
    repro-experiments fig6 fig7          # run two experiments
    repro-experiments --all --full       # everything, full effort
    repro-experiments --all --jobs 8     # fan cells out over 8 processes
    repro-experiments fig14 --out results/
    repro-experiments fig6 --metrics-out metrics.prom
    repro-experiments --all --live       # streaming worker progress
    repro-experiments fig6 --trace-decisions 0.05 \\
        --metrics-out m.prom --decision-trace-out decisions.jsonl
    repro-experiments serve-metrics fig6 --metrics-out m.prom
    repro-experiments serve --metrics-port 0 --slo-out slo.json
    repro-experiments serve-bench --seed 11 --ops 4000 --out slo.json
    repro-experiments serve-bench --overload   # bounded-p99 demo
    repro-experiments report results/run_summary.json
    repro-experiments report --diff OLD.json NEW.json
    repro-experiments chaos --seeds 1 7 --jobs 4 --out chaos.json --live

Each experiment prints a paper-style text table and (with ``--out``)
writes a JSON result file for archival/plotting.  ``--metrics-out``
attaches a :class:`~repro.obs.hub.MetricsHub` to every executor cell
and writes the merged metrics as Prometheus text exposition (plus a
``.jsonl`` snapshot stream next to it); the figure JSON itself is
byte-identical with or without metrics attached.

With ``--jobs N`` and more than one experiment selected, the whole run
becomes a **suite session**: one persistent worker pool is created and
warmed up front, and every experiment's cells flow through it —
several experiment drivers run concurrently, so the pool queue holds
cells from multiple figures at once and one figure's straggler tail
overlaps the next figure's start.  Output (tables, JSON files, metrics
exports) is printed and written in paper order and stays byte-identical
to a sequential ``--jobs 1`` run.

The ``chaos`` subcommand runs the crash-consistency matrix instead of
an experiment: every consistency-relevant boundary of a deterministic
reference workload gets a crash-and-recover replay, with WAL-tail and
torn-page hazards layered on top (see ``docs/FAULTS.md``).  The JSON
report is byte-identical for any ``--jobs`` value.

The live telemetry plane rides strictly out-of-band of all of this:
``--live`` streams worker progress (cells running, phase, percent,
ops/s, ETA) to stderr; ``--trace-decisions FRAC`` records a sampled
trace of the migration engine's admit/deny decisions; the
``serve-metrics`` subcommand exposes the Prometheus exporter over HTTP
*while the run executes* and asserts the final scrape is byte-for-byte
the file export; the ``report`` subcommand renders the
``run_summary.json`` a run leaves under ``--out`` and diffs two
``BENCH_repro.json``-style wall-clock reports into a regression table.
None of it changes result bytes — ``check_golden_figures.py
--with-telemetry`` regenerates figures with every observer attached and
requires identical JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import contextvars
import dataclasses
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .bench.experiments import REGISTRY


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "chaos":
        return chaos_main(argv[1:])
    if argv and argv[0] == "serve-metrics":
        return serve_metrics_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "serve-bench":
        return serve_bench_main(argv[1:])
    if argv and argv[0] == "report":
        return report_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the Spitfire (SIGMOD '21) evaluation.",
    )
    _add_suite_arguments(parser)
    parser.add_argument("--list", action="store_true",
                        help="list available experiment ids")
    parser.add_argument("--out", metavar="DIR",
                        help="directory for JSON result files (plus a "
                             "run_summary.json digest for the report "
                             "subcommand)")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="collect per-cell metrics and write Prometheus "
                             "text exposition to PATH (and a JSONL snapshot "
                             "stream to PATH with a .jsonl suffix)")
    parser.add_argument("--decision-trace-out", metavar="PATH",
                        help="write the sampled decision spans as JSONL to "
                             "PATH (implies per-cell collection; needs "
                             "--trace-decisions to record anything)")
    args = parser.parse_args(argv)

    if args.list:
        for experiment_id in REGISTRY:
            print(experiment_id)
        return 0

    chosen = _resolve_chosen(parser, args)
    options = options_from_args(parser, args)

    from .bench import executor

    collect = bool(args.metrics_out or args.decision_trace_out)
    aggregator = None
    with contextlib.ExitStack() as stack:
        stack.enter_context(executor.run_options(options))
        if args.live:
            aggregator = _attach_live(stack)
        sink, records = _run_experiments(chosen, args, collect=collect)
    if args.metrics_out:
        _export_metrics(args.metrics_out, sink)
    if args.decision_trace_out:
        _export_decision_traces(args.decision_trace_out, sink)
    if args.out:
        _write_run_summary(args.out, records, sink if collect else None,
                           aggregator)
    return 0


def _resolve_chosen(parser, args) -> list[str]:
    chosen = list(REGISTRY) if args.all else args.experiments
    if not chosen:
        parser.error("no experiments selected (use ids, --all, or --list)")
    unknown = [e for e in chosen if e not in REGISTRY]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"choose from {', '.join(REGISTRY)}"
        )
    return chosen


def _add_suite_arguments(parser) -> None:
    """What to run and what to attach: ``main`` and ``serve-metrics``."""
    parser.add_argument("experiments", nargs="*",
                        help="experiment ids (e.g. fig6 table2)")
    parser.add_argument("--all", action="store_true",
                        help="run every experiment in paper order")
    parser.add_argument("--full", action="store_true",
                        help="full effort (longer runs, more points)")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes per experiment (default: 1; "
                             "results are identical at any job count)")
    parser.add_argument("--live", action="store_true",
                        help="stream worker progress (cells, phase, ops/s, "
                             "ETA) to stderr while the run executes")
    parser.add_argument("--trace-decisions", type=float, default=0.0,
                        metavar="FRAC",
                        help="record migration/admission/eviction decision "
                             "spans for a hash-sampled page fraction "
                             "(0 <= FRAC <= 1, 0 = off; result JSON is "
                             "unchanged)")


def options_from_args(parser, args):
    """The :class:`RunOptions` the parsed flags ask for.

    Every parsed attribute named after a ``RunOptions`` field sets it
    (``check_golden_figures.py`` gives its ``--with-*`` flags such
    ``dest`` names and builds its value here too); a value
    ``RunOptions`` rejects is a usage error.  ``--live`` names a
    resource with a lifetime, not a value: see :func:`_attach_live`.
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


def _attach_live(stack: contextlib.ExitStack):
    """Enter a live-telemetry scope on ``stack``; returns the aggregator."""
    from .bench.executor import run_options
    from .bench.telemetry import live_telemetry

    channel, aggregator = stack.enter_context(live_telemetry())
    stack.enter_context(run_options(telemetry=channel))
    return aggregator


def _run_experiments(chosen: list[str], args,
                     collect: bool) -> tuple[list, list]:
    """Run the selected experiments.

    Returns ``(sink, records)``: the merged metrics sink (``(label,
    RunResult)`` pairs in paper order) and one summary record per
    experiment (id, title, wall time, series/point counts, decision
    digest) for the run summary.

    One experiment (or ``--jobs 1``) runs inline.  Several experiments
    with ``--jobs N`` open a suite-wide run session: the persistent
    pool is warmed once, then a few driver threads walk the experiment
    list concurrently so the shared pool schedules cells from multiple
    figures as one batch.  Each driver collects metrics into its own
    per-experiment sink; concatenating the sinks in paper order makes
    the merged export byte-identical to a sequential run.  Passing
    ``collect=False`` leaves any *ambient* metrics scope in charge
    (``serve-metrics`` enters one around the whole suite so the live
    endpoint sees cells as they finish).
    """
    from .bench import executor

    quick = not args.full

    def drive(experiment_id: str):
        started = time.time()
        with (executor.metrics_collection() if collect
              else contextlib.nullcontext([])) as sink:
            result = REGISTRY[experiment_id](quick=quick, jobs=args.jobs)
        record = {
            "experiment_id": experiment_id,
            "title": result.title,
            "elapsed_s": round(time.time() - started, 3),
            "series": len(result.series),
            "points": sum(len(s.points) for s in result.series.values()),
        }
        digest = _decision_digest(sink)
        if digest is not None:
            record["decisions"] = digest
        return result, sink, record

    def emit(experiment_id: str, result, record: dict) -> None:
        print(result.render())
        print(f"   [{experiment_id} took {record['elapsed_s']:.1f}s]\n")
        if args.out:
            path = result.save_json(args.out)
            print(f"   saved {path}")

    merged: list = []
    records: list = []
    if args.jobs > 1 and len(chosen) > 1:
        with executor.run_session(jobs=args.jobs) as session:
            # Each driver runs in a copy of this thread's context, so
            # per-driver metrics scopes stay isolated while inheriting
            # any ambient scopes entered before the session.
            drivers = min(len(chosen), max(2, args.jobs))
            with ThreadPoolExecutor(max_workers=drivers) as threads:
                futures = [
                    threads.submit(contextvars.copy_context().run, drive,
                                   experiment_id)
                    for experiment_id in chosen
                ]
                for experiment_id, future in zip(chosen, futures):
                    result, sink, record = future.result()
                    emit(experiment_id, result, record)
                    merged.extend(sink)
                    records.append(record)
            print(f"   [{session.describe()}]")
    else:
        for experiment_id in chosen:
            result, sink, record = drive(experiment_id)
            emit(experiment_id, result, record)
            merged.extend(sink)
            records.append(record)
    return merged, records


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


def chaos_main(argv: list[str]) -> int:
    """``repro-experiments chaos``: the crash-consistency matrix."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments chaos",
        description="Replay a deterministic workload, crashing at every "
                    "consistency-relevant boundary, and assert the ACID "
                    "invariant catalogue after recovery.",
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 23],
                        metavar="N", help="workload seeds (default: 1 7 23)")
    parser.add_argument("--seed", type=int, default=None, metavar="N",
                        help="shorthand for a single-seed run")
    parser.add_argument("--policies", nargs="+",
                        default=["DRAM_SSD", "SPITFIRE_LAZY", "SPITFIRE_EAGER"],
                        metavar="P", help="migration policies to cover")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes (default: 1; the report is "
                             "byte-identical at any job count)")
    parser.add_argument("--no-tail-faults", action="store_true",
                        help="clean crashes only (skip torn-write, "
                             "dropped-persist, and torn-page hazards)")
    parser.add_argument("--read-error-rate", type=float, default=0.0,
                        metavar="R", help="live transient read-fault rate "
                                          "during the workload (default: 0)")
    parser.add_argument("--write-error-rate", type=float, default=0.0,
                        metavar="R", help="live transient write-fault rate "
                                          "during the workload (default: 0)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the JSON report to PATH")
    parser.add_argument("--live", action="store_true",
                        help="stream per-case progress to stderr while the "
                             "matrix runs (the report is unchanged)")
    args = parser.parse_args(argv)

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
    seeds = [args.seed] if args.seed is not None else args.seeds

    from .bench import executor

    started = time.time()
    # The crash matrix shares the suite's persistent pool: a session
    # warms it once up front, then every CrashCase flows through it as
    # chunked tasks (the report stays byte-identical at any --jobs).
    with contextlib.ExitStack() as stack:
        if args.live:
            _attach_live(stack)
        stack.enter_context(executor.run_session(jobs=args.jobs))
        report = run_crash_matrix(
            policies=tuple(args.policies),
            seeds=tuple(seeds),
            jobs=args.jobs,
            with_tail_faults=not args.no_tail_faults,
            read_error_rate=args.read_error_rate,
            write_error_rate=args.write_error_rate,
        )
    elapsed = time.time() - started

    kinds = ", ".join(f"{kind}={count}"
                      for kind, count in report["boundary_kinds"].items())
    print(f"chaos: {report['total_cases']} crash case(s) over "
          f"{len(report['policies'])} policy(ies) x "
          f"{len(report['seeds'])} seed(s)  [{elapsed:.1f}s]")
    print(f"   boundaries: {kinds}")
    if report["ok"]:
        print("   all invariants held: OK")
    else:
        for case_id in report["failures"]:
            print(f"   FAILED {case_id}")
    if args.out:
        Path(args.out).write_text(render_matrix_json(report) + "\n")
        print(f"   saved {args.out}")
    return 0 if report["ok"] else 1


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
    print(f"   metrics: {len(sink)} cell(s), "
          f"op_latency_ns count={latency_count}, "
          f"stats reads+writes={totals.reads + totals.writes}")
    print(f"   wrote {path} and {jsonl_path}")


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
    print(f"   decision trace: {cells} cell(s), {len(lines)} span(s) "
          f"-> {path}")


def _write_run_summary(out_dir: str, records: list, sink,
                       aggregator) -> None:
    """Drop ``run_summary.json`` next to the per-figure JSON files."""
    from .bench.reporting import build_run_summary
    from .obs.export import merge_snapshots

    registry = None
    if sink is not None:
        registry = merge_snapshots(result.metrics for _, result in sink)
    summary = build_run_summary(
        records, registry=registry,
        telemetry=aggregator.summary() if aggregator is not None else None,
        generated_at=time.time(),
    )
    path = Path(out_dir) / "run_summary.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"   saved {path}")


def serve_metrics_main(argv: list[str]) -> int:
    """``repro-experiments serve-metrics``: live Prometheus endpoint.

    Runs the selected experiments with one suite-wide metrics scope and
    serves the merged registry over HTTP *while they execute* — every
    scrape sees all cells finished so far.  After the run, the final
    scrape is asserted byte-for-byte equal to the file export (when
    ``--metrics-out`` is given) or to the in-memory rendering, and a
    mismatch fails the command — the contract CI smoke-tests.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve-metrics",
        description="Run experiments while serving the Prometheus "
                    "exporter over HTTP, scrapable live mid-run.",
    )
    _add_suite_arguments(parser)
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="port to serve on (default: 0 = pick free)")
    parser.add_argument("--out", metavar="DIR",
                        help="directory for JSON result files")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="also write the final export to PATH and "
                             "assert the last scrape equals it exactly")
    args = parser.parse_args(argv)

    chosen = _resolve_chosen(parser, args)
    options = options_from_args(parser, args)

    from .bench import executor
    from .obs.export import merge_snapshots, prometheus_text
    from .obs.server import MetricsServer

    with contextlib.ExitStack() as stack:
        stack.enter_context(executor.run_options(options))
        # One suite-wide metrics scope: the pool appends each finished
        # cell to this sink, so the provider renders a growing registry.
        sink = stack.enter_context(executor.metrics_collection())

        def provider() -> str:
            return prometheus_text(
                merge_snapshots(result.metrics for _, result in list(sink)))

        server = stack.enter_context(
            MetricsServer(provider, host=args.host, port=args.port))
        print(f"   serving live metrics at {server.url}")
        if args.live:
            _attach_live(stack)
        _run_experiments(chosen, args, collect=False)
        final_scrape = server.scrape()
        served = server.requests_served
    expected = provider()
    if args.metrics_out:
        _export_metrics(args.metrics_out, sink)
        expected = Path(args.metrics_out).read_text()
    matches = final_scrape == expected
    print(f"   served {served} scrape(s); final scrape "
          f"{'==' if matches else '!='} "
          f"{'file export' if args.metrics_out else 'merged registry'}")
    if not matches:
        print("   SERVE-METRICS FAILED: final scrape diverged from the "
              "export")
    return 0 if matches else 1


def serve_main(argv: list[str]) -> int:
    """``repro-experiments serve``: the live serving plane.

    Starts one shared buffer manager behind the asyncio stream server
    (see ``docs/SERVING.md`` for the wire protocol), serves until
    SIGTERM/SIGINT, then drains gracefully: the listener closes,
    admission flips to drain mode, in-flight dispatch finishes, dirty
    pages flush, and a final SLO report covers everything served.
    """
    parser = argparse.ArgumentParser(
        prog="repro-experiments serve",
        description="Serve one shared three-tier buffer manager to "
                    "concurrent client sessions until SIGTERM.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="port to serve on (default: 0 = pick free)")
    parser.add_argument("--policy", default="Spitfire-Eager",
                        help="Table 3 policy preset (default: "
                             "Spitfire-Eager)")
    parser.add_argument("--dram-gb", type=float, default=0.5)
    parser.add_argument("--nvm-gb", type=float, default=2.0)
    parser.add_argument("--ssd-gb", type=float, default=8.0)
    parser.add_argument("--tenants", type=int, default=4, metavar="N",
                        help="tenant count sessions may hello as "
                             "(default: 4)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--max-queue-depth", type=int, default=64,
                        metavar="N",
                        help="per-tenant admitted-but-unfinished cap; "
                             "beyond it arrivals shed (default: 64)")
    parser.add_argument("--rate-limit", type=float, default=None,
                        metavar="OPS_PER_S",
                        help="per-tenant token-bucket rate (default: off)")
    parser.add_argument("--no-admission", action="store_true",
                        help="disable shedding (unbounded queueing; for "
                             "the overload comparison only)")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve /metrics, /healthz, /readyz on PORT "
                             "(0 = pick free; default: no endpoint)")
    parser.add_argument("--slo-out", metavar="PATH",
                        help="write the shutdown SLO report to PATH")
    parser.add_argument("--fault-seed", type=int, default=None, metavar="N",
                        help="inject seeded device faults under the live "
                             "load (chaos mode)")
    parser.add_argument("--fault-rate", type=float, default=0.01,
                        metavar="R",
                        help="transient read/write fault rate in chaos "
                             "mode (default: 0.01)")
    args = parser.parse_args(argv)

    import asyncio

    from .faults.plan import FaultPlan
    from .serve import AdmissionConfig, ServeConfig, SpitfireServer
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
        admission=AdmissionConfig(
            max_queue_depth=args.max_queue_depth,
            rate_ops_per_s=args.rate_limit,
            enabled=not args.no_admission,
        ),
        fault_plan=fault_plan,
        metrics_port=args.metrics_port,
        slo_out=args.slo_out,
    )

    async def run() -> dict:
        server = SpitfireServer(config)
        await server.start()
        print(f"   listening on {server.host}:{server.port}", flush=True)
        if server.metrics is not None:
            print(f"   metrics at {server.metrics.url}", flush=True)
        if fault_plan is not None:
            print(f"   chaos: fault plan seed={args.fault_seed} "
                  f"rate={args.fault_rate}", flush=True)
        server.install_signal_handlers()
        await server.wait_shutdown()
        print("   draining...", flush=True)
        return await server.shutdown()

    summary = asyncio.run(run())
    print(f"   drained: served={summary['served']} shed={summary['shed']} "
          f"flushed_pages={summary['flushed_pages']} "
          f"crashes={summary['crashes']}")
    print(render_slo_report(summary["slo"]))
    if args.slo_out:
        print(f"   saved {args.slo_out}")
    return 0


def serve_bench_main(argv: list[str]) -> int:
    """``repro-experiments serve-bench``: deterministic serving SLOs.

    The serving plane measured in virtual time: a seeded open-loop
    client fleet against the same dispatcher/admission code the live
    server runs, producing a byte-deterministic SLO report (identical
    across runs and ``--jobs`` values).  ``--overload`` runs the
    bounded-p99-versus-unbounded-queueing comparison instead.
    """
    from .serve.bench import (
        OVERLOAD_FACTOR,
        ServeBenchConfig,
        run_overload_experiment,
        run_serve_bench,
    )
    from .serve.admission import AdmissionConfig
    from .serve.slo import render_slo_report, slo_report_json

    parser = argparse.ArgumentParser(
        prog="repro-experiments serve-bench",
        description="Measure serving SLOs (latency quantiles, shed "
                    "rate, goodput) deterministically in virtual time.",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--ops", type=int, default=4_000, metavar="N",
                        help="total arrivals across the fleet "
                             "(default: 4000)")
    parser.add_argument("--rate", type=float, default=40_000.0,
                        metavar="OPS_PER_S",
                        help="aggregate arrival rate (default: 40000)")
    parser.add_argument("--policy", default="Spitfire-Eager")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="schedule-generation workers (default: 1; "
                             "the report is byte-identical at any count)")
    parser.add_argument("--max-queue-depth", type=int, default=64,
                        metavar="N")
    parser.add_argument("--rate-limit", type=float, default=None,
                        metavar="OPS_PER_S",
                        help="per-tenant token-bucket rate (default: off)")
    parser.add_argument("--no-admission", action="store_true",
                        help="disable shedding (unbounded queueing)")
    parser.add_argument("--overload", action="store_true",
                        help="run the overload comparison (admission on "
                             f"vs off at {OVERLOAD_FACTOR:g}x the arrival "
                             "rate)")
    parser.add_argument("--out", metavar="PATH",
                        help="write the SLO report JSON to PATH")
    args = parser.parse_args(argv)

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
        result = run_overload_experiment(config, jobs=args.jobs)
        summary = result["summary"]
        on = result["legs"]["admission_on"]["totals"]
        print(f"serve-bench overload: {on['arrivals']} arrivals at "
              f"{config.rate_ops_per_s * OVERLOAD_FACTOR:,.0f} ops/s  "
              f"[{time.time() - started:.1f}s]")
        print(f"   admission on : shed={summary['shed_rate_on']:.1%}  "
              f"p99={summary['p99_on_ns']:,.0f}ns")
        print(f"   admission off: shed={summary['shed_rate_off']:.1%}  "
              f"p99={summary['p99_off_ns']:,.0f}ns")
        print(f"   bounded tail is {summary['p99_ratio']:.1f}x lower "
              f"with shedding")
        payload = result
    else:
        report = run_serve_bench(config, jobs=args.jobs)
        print(f"serve-bench: seed={args.seed} ops={args.ops} "
              f"jobs={args.jobs}  [{time.time() - started:.1f}s]")
        print(render_slo_report(report))
        payload = report
    if args.out:
        Path(args.out).write_text(slo_report_json(payload))
        print(f"   saved {args.out}")
    return 0


def report_main(argv: list[str]) -> int:
    """``repro-experiments report``: render a run summary or diff two
    wall-clock reports."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments report",
        description="Render a run_summary.json digest, or --diff two "
                    "BENCH_repro.json-style reports into a regression "
                    "table (exit 1 on regressions).",
    )
    parser.add_argument("summary", nargs="?",
                        help="run_summary.json written by a --out run")
    parser.add_argument("--diff", nargs=2, metavar=("OLD", "NEW"),
                        help="diff two BENCH_repro.json-style files")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        metavar="FRAC",
                        help="relative move a direction-aware metric may "
                             "make before --diff flags it (default: 0.10)")
    parser.add_argument("--show-unchanged", action="store_true",
                        help="include rows within tolerance in the table")
    args = parser.parse_args(argv)

    from .bench.reporting import (
        diff_bench_reports,
        render_bench_diff,
        render_run_summary,
    )

    if args.diff:
        old = json.loads(Path(args.diff[0]).read_text())
        new = json.loads(Path(args.diff[1]).read_text())
        diff = diff_bench_reports(old, new, tolerance=args.tolerance)
        print(render_bench_diff(diff, show_unchanged=args.show_unchanged))
        return 0 if diff["ok"] else 1
    if not args.summary:
        parser.error("provide a run_summary.json path or --diff OLD NEW")
    summary = json.loads(Path(args.summary).read_text())
    print(render_run_summary(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
