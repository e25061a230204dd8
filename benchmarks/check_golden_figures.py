"""Golden-figure gate: regenerate figures and byte-compare their JSON.

The refactoring contract of the core (PR 1's chain decomposition, the
four-component core split) is that figure output is *byte-identical*
to the archived seed results under ``benchmarks/results/``.  This
script enforces that mechanically: it reruns the named experiments at
quick effort, serialises them exactly the way the benchmark suite
does (``ExperimentResult.save_json``), and compares the bytes against
the archived JSON.  CI runs it on every push, so bit-identity is a
pipeline property rather than a by-hand claim.

Every ``--with-*`` flag sets fields of the one
:class:`~repro.bench.harness.RunOptions` value the regeneration runs
under (:func:`~repro.bench.executor.run_options`); byte-identity under
each is that plane's core contract:

``--with-metrics``
    ``collect_metrics``: a :class:`~repro.obs.hub.MetricsHub` on every
    executor cell — observability is side-effect-free.
``--with-faults-disabled``
    ``fault_plan=FaultPlan.none()``: every device wrapped in a
    pure-delegation :class:`~repro.faults.injector.FaultyDevice` — the
    injection layer costs nothing when disabled.
``--with-batching``
    ``batch_size=1024``: every cell through the columnar batch path —
    batching changes wall-clock time and nothing else.
``--with-tenancy``
    ``track_tenants``: every buffer manager built with
    ``TenancyConfig.single()``, every op tagged tenant 0 through the
    per-tenant admission and metrics machinery — tenant plumbing at
    the default tenant is free.
``--with-telemetry``
    ``telemetry`` + ``collect_metrics`` + both tracers
    (``trace_decisions=0.05``, ``trace_pages=0.05``): a streaming
    worker-progress channel (manager-queue backed, drained by a
    background aggregator), every measurement-window observer the
    harness can attach — hub, decision recorder, page-lifecycle
    tracer — on every cell, and a live Prometheus
    endpoint (:class:`~repro.obs.server.MetricsServer`) scraped by a
    background thread *while the figures regenerate* — watching a run
    live changes nothing about its results.

The flags compose, and a composed run cannot pass vacuously: whenever
metrics are collected, every plane that is switched on must have left
its trace on the results **as computed where the cells ran** (the
metrics sink) — a non-empty sink, fault-wrapper series, a tenant-0
breakdown, a decision and page trace, at least one vectorised
batch run — and the telemetry plane must have delivered progress
events and at least one successful mid-run scrape.  Every cell's
latency histograms must also count exactly its ``BufferStats`` reads +
writes (``op_latency_ns``, and ``tenant_op_latency_ns`` with tenancy).

``--prewarm-pool`` creates and warms the persistent worker pool
*before* any option is set.  This is the adversarial ordering for
option transport: the workers are forked first, so nothing can reach
them by inheritance — only the ``RunOptions`` value every submission
carries.  Byte-identity plus the liveness checks under ``--prewarm-pool
--jobs 4`` with every plane composed is the proof that the persistent
pool neither leaks nor drops run options.

Usage::

    python benchmarks/check_golden_figures.py            # fig6 + fig7
    python benchmarks/check_golden_figures.py fig6 fig7 fig8 recovery --jobs 4
    python benchmarks/check_golden_figures.py --jobs 4 --prewarm-pool \
        --with-metrics --with-faults-disabled --with-batching \
        --with-tenancy --with-telemetry
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
import threading
import time
from dataclasses import replace
from pathlib import Path

from repro.bench.executor import metrics_collection, run_options
from repro.bench.experiments import REGISTRY
from repro.bench.harness import RunOptions
from repro.bench.telemetry import live_telemetry
from repro.cli import options_from_args
from repro.faults.plan import FaultPlan

RESULTS_DIR = Path(__file__).parent / "results"

#: Experiments cheap enough to regenerate on every CI run while still
#: exercising the full chain walk (hits, misses, promotions, evictions,
#: write-backs) across four workloads and two worker counts each.
DEFAULT_EXPERIMENTS = ("fig6", "fig7")

#: Batch size ``--with-batching`` drives cells at; large enough that a
#: measurement window spans only a handful of batches.
BATCHING_BATCH_SIZE = 1024

#: Page fraction ``--with-telemetry`` samples decision and lifecycle
#: spans at.
TELEMETRY_TRACE_FRACTION = 0.05


def check(experiment_id: str, jobs: int, options: RunOptions,
          live: bool = False) -> bool:
    golden = RESULTS_DIR / f"{experiment_id}.json"
    if not golden.exists():
        print(f"FAIL {experiment_id}: no archived result at {golden}")
        return False
    started = time.time()
    watch = None
    with contextlib.ExitStack() as stack:
        if live:
            channel, aggregator = stack.enter_context(
                live_telemetry(stream=io.StringIO()))
            options = replace(options, telemetry=channel)
        stack.enter_context(run_options(options))
        sink = (stack.enter_context(metrics_collection())
                if options.collect_metrics else [])
        if live:
            watch = aggregator, _scrape_run(stack, sink)
        result = REGISTRY[experiment_id](quick=True, jobs=jobs)
    attached, dead = _planes(options, [result for _, result in sink], watch)
    if dead:
        print(f"FAIL {experiment_id}: a plane is dead or missed ops — "
              + "; ".join(dead))
        return False
    with tempfile.TemporaryDirectory() as tmp:
        fresh = result.save_json(tmp)
        fresh_bytes = fresh.read_bytes()
    golden_bytes = golden.read_bytes()
    elapsed = time.time() - started
    if fresh_bytes == golden_bytes:
        print(f"OK   {experiment_id}: byte-identical to {golden} "
              f"({len(golden_bytes)} bytes, {elapsed:.1f}s{attached})")
        return True
    print(f"FAIL {experiment_id}: output differs from {golden} "
          f"({elapsed:.1f}s)")
    _explain(golden_bytes, fresh_bytes)
    return False


def _planes(options: RunOptions, results: list, watch) -> tuple[str, list[str]]:
    """What ``options`` attached (for the OK line), and every plane of
    it that left no trace of being live or whose latency histograms
    missed an op.

    Both are read off ``results`` — the metrics sink, i.e. the results
    as computed where the cells ran, pool workers included — so a plane
    is only checkable while metrics are collected; without a sink,
    byte-identity alone is gated.  The hub is offered op and hit events
    only, so every cell's ``op_latency_ns`` count (and, with tenancy,
    its ``tenant_op_latency_ns`` count) must equal its ``BufferStats``
    reads + writes: the proof that no op, batched or not, went unseen.
    """
    def has_series(result, name: str) -> bool:
        return any(entry["name"] == name
                   for entry in result.metrics["registry"].values())

    def unreconciled(name: str) -> bool:
        return any(
            sum(sum(entry["state"]["counts"])
                for entry in result.metrics["registry"].values()
                if entry["name"] == name) != result.stats.operations
            for result in results)

    attached, dead = [], []
    if options.collect_metrics:
        attached.append(f"metrics attached to {len(results)} cells")
        if not results:
            dead.append("metrics: the sink is empty (no executor cell ran "
                        "under collection)")
        if unreconciled("op_latency_ns"):
            dead.append("metrics: a cell's op_latency_ns count differs "
                        "from its stats reads+writes")
    if options.fault_plan is not None:
        attached.append("no-op fault wrappers installed")
        if not all(has_series(r, "faults_injected_total") for r in results):
            dead.append("faults: a cell ran on unwrapped devices")
    if options.batch_size > 1:
        runs = sum(r.batch_runs for r in results)
        attached.append(f"batched at {options.batch_size} "
                        f"({runs} vectorised runs)")
        if results and not runs:
            dead.append("batching: no run was vectorised")
    if options.track_tenants:
        attached.append("tenant tagging on")
        if not all(set(r.tenant_breakdown or ()) == {0} for r in results):
            dead.append("tenancy: a cell carries no tenant-0 breakdown")
        if unreconciled("tenant_op_latency_ns"):
            dead.append("tenancy: a cell's tenant_op_latency_ns count "
                        "differs from its stats reads+writes")
    if options.trace_decisions and not all(r.decision_trace for r in results):
        dead.append("decision tracing: a cell carries no decision trace")
    if options.trace_pages and not all(r.page_traces for r in results):
        dead.append("page tracing: a cell carries no lifecycle trace")
    if watch is not None:
        aggregator, scrapes = watch
        events = aggregator.summary()["events_seen"]
        attached.append(f"live telemetry on, {events} event(s), "
                        f"{scrapes['ok']} mid-run scrape(s)")
        if not events:
            dead.append("telemetry: no progress event was delivered")
        if not scrapes["ok"]:
            dead.append(f"telemetry: the live endpoint was never scraped "
                        f"successfully ({scrapes['fail']} failed attempts)")
    return "".join(f", {note}" for note in attached), dead


def _scrape_run(stack: contextlib.ExitStack, sink: list) -> dict:
    """Scrape a live endpoint while the run lasts.

    A background thread polls a live Prometheus endpoint over the
    growing ``sink``.  Everything tears down via ``stack``; returns the
    scrape counts for the liveness checks.
    """
    from repro.obs.export import merge_snapshots, prometheus_text
    from repro.obs.server import MetricsServer

    scrapes = {"ok": 0, "fail": 0}

    def provider() -> str:
        return prometheus_text(
            merge_snapshots(result.metrics for _, result in list(sink)))

    server = stack.enter_context(MetricsServer(provider))
    stop = threading.Event()

    def scraper() -> None:
        while not stop.is_set():
            try:
                server.scrape(timeout=2.0)
                scrapes["ok"] += 1
            except Exception:
                scrapes["fail"] += 1
            stop.wait(0.2)

    thread = threading.Thread(target=scraper, name="golden-scraper",
                              daemon=True)
    thread.start()

    def join_scraper() -> None:
        stop.set()
        thread.join(timeout=5.0)

    stack.callback(join_scraper)
    return scrapes


def _explain(golden_bytes: bytes, fresh_bytes: bytes) -> None:
    """Print the first differing series point to make CI logs actionable."""
    import json

    golden = json.loads(golden_bytes)
    fresh = json.loads(fresh_bytes)
    for label, points in golden.get("series", {}).items():
        fresh_points = fresh.get("series", {}).get(label)
        if fresh_points == points:
            continue
        print(f"  first differing series: {label!r}")
        print(f"    golden: {points}")
        print(f"    fresh:  {fresh_points}")
        return
    print("  series identical; difference is in notes/metadata/formatting")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiments", nargs="*",
                        default=list(DEFAULT_EXPERIMENTS),
                        help=f"experiment ids (default: {' '.join(DEFAULT_EXPERIMENTS)})")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes per experiment (results are "
                             "identical at any job count)")
    # Each flag's ``dest`` names the RunOptions field it sets, which is
    # how ``options_from_args`` finds it.  Under every one of them the
    # JSON must stay byte-identical.
    parser.add_argument("--with-metrics", dest="collect_metrics",
                        action="store_true",
                        help="attach a MetricsHub to every cell")
    parser.add_argument("--with-faults-disabled", dest="fault_plan",
                        action="store_const", const=FaultPlan.none(),
                        help="install a no-op FaultPlan (pure-delegation "
                             "device wrappers) in every cell")
    parser.add_argument("--with-batching", dest="batch_size",
                        action="store_const", const=BATCHING_BATCH_SIZE,
                        default=1,
                        help="drive every cell through the columnar batch "
                             f"path at batch size {BATCHING_BATCH_SIZE}")
    parser.add_argument("--with-tenancy", dest="track_tenants",
                        action="store_true",
                        help="enable tenant tagging (single-tenant "
                             "TenancyConfig, every op tagged tenant 0)")
    parser.add_argument("--with-telemetry", action="store_true",
                        help="attach the live telemetry plane (streaming "
                             "progress channel, decision/page "
                             "tracing, HTTP scrape endpoint polled mid-run; "
                             "implies --with-metrics); progress events must "
                             "arrive and >= 1 scrape must succeed")
    parser.add_argument("--prewarm-pool", action="store_true",
                        help="fork and warm the persistent worker pool "
                             "BEFORE any run option is set, so options can "
                             "only reach workers inside each submission "
                             "(never by fork inheritance)")
    args = parser.parse_args(argv)

    unknown = [e for e in args.experiments if e not in REGISTRY]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")
    if args.prewarm_pool and args.jobs > 1:
        from repro.bench.executor import pool_info, warm_pool

        warmed = warm_pool(args.jobs)
        info = pool_info()
        print(f"prewarmed pool: {info} (warmed={warmed})")
    options = options_from_args(parser, args)
    if args.with_telemetry:
        # The live scrape endpoint serves the merged metrics sink, so
        # the telemetry plane needs per-cell collection on; with the
        # two tracers every measurement-window observer is attached.
        options = replace(options, collect_metrics=True,
                          trace_decisions=TELEMETRY_TRACE_FRACTION,
                          trace_pages=TELEMETRY_TRACE_FRACTION)
    failures = [e for e in args.experiments
                if not check(e, args.jobs, options, live=args.with_telemetry)]
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
