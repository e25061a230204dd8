"""Wall-clock benchmark baseline for the reproduction harness.

The measurements, written to ``BENCH_repro.json`` next to this script
(or to ``--out PATH``):

* **cell wall time** — a fixed-seed fig6-style cell (TPC-C on the
  policy-sweep hierarchy with Spitfire-Lazy) executed end to end
  through :func:`repro.bench.executor.run_cell`, the unit of work the
  parallel executor fans out.
* **parallel executor speedup** — a figure-matrix-style batch of those
  cells run serially and then at ``--jobs N`` through the persistent
  session pool (warmed first, the way a suite run pays for it once).
  ``speedup`` is serial/parallel wall time; ``usable_cpus`` records the
  cores the ratchet scales its floor by — on a 4-core machine the floor
  is 3x, on a 1-core machine it degrades to parity-minus-overhead
  (parallelism cannot beat serial without cores, but the pool must no
  longer *lose* to serial the way the per-figure pool teardown did).
* **inner-loop ops/sec** — raw ``BufferManager.read`` calls against a
  DRAM-resident working set, best of ``--repeats`` passes.  This is the
  per-operation overhead of the tier chain + event bus + cost model
  with every cache effect warmed away; hot-path regressions show up
  here first.
* **batched inner-loop ops/sec** — the same reads through
  ``BufferManager.read_batch`` in struct-of-arrays chunks (skipped when
  numpy is unavailable).  The batch path is byte-identical to the
  per-op loop, so the only thing this measures is the vectorization
  win; the ratchet requires it to stay ≥ ``--min-batch-speedup``×.
* **plane overheads** — the same cell under a baseline
  :class:`~repro.bench.harness.RunOptions` and with one plane attached,
  one row per plane (:data:`OVERHEAD_ROWS`): *metrics* (bare vs a
  :class:`~repro.obs.hub.MetricsHub`), *tenancy* (metrics vs metrics +
  ``track_tenants`` — both legs collect, so the delta isolates the
  ``TenancyConfig.single()`` plumbing) and *telemetry* (bare vs a live
  :class:`~repro.bench.telemetry.TelemetryChannel` draining into a
  background aggregator plus decision tracing at a 5 % sample).  One
  estimator for all three (:func:`time_cell_overhead`): interleaved
  pairs, the guard reads the *minimum* attached/baseline ratio over
  ``--repeats`` pairs against the one ``--overhead-budget``.  Each row
  also asserts — structurally, not by timing — that its plane was
  really attached: detaching the hub leaves the bus exactly as it was
  (same subscriber count, the hub no longer subscribed); the
  tagged result carries a tenant-0 breakdown; the telemetry result
  carries a decision trace and progress events flowed.

* **serving-plane replay** — a fixed-seed ``serve-bench`` run
  (:func:`repro.serve.bench.run_serve_bench`): schedule generation plus
  the virtual-time admission/dispatch replay, best of ``--repeats``
  passes.  ``ops_per_second`` is wall-clock ops through the serving
  path; ``p99_ns`` is the (machine-independent) admitted-request tail
  from the SLO report.  The ratchet holds ``ops_per_second`` to the
  committed baseline like the inner loops.

Every run also appends one summary line (git sha, cpu budget, ops/s,
speedups, overhead fractions, pass/fail) to the append-only
``BENCH_history.jsonl`` next to this script (``--history PATH`` moves
it, ``--no-history`` skips it), so perf drift is inspectable across
commits without diffing whole reports.

Both use fixed seeds, so reruns on one machine are comparable; numbers
across machines are not (and the simulated throughputs inside the cell
are machine-independent by design — only the wall clock varies).

``--check`` turns the report into a CI ratchet: the fresh inner-loop
numbers are compared against the committed ``BENCH_repro.json`` and the
run fails on a regression beyond ``--tolerance``; improvements update
the baseline in place (commit the new file to raise the bar).

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py
    PYTHONPATH=src python benchmarks/bench_wallclock.py --jobs 0   # skip parallel
    PYTHONPATH=src python benchmarks/bench_wallclock.py --metrics-out out/
    PYTHONPATH=src python benchmarks/bench_wallclock.py --check
    PYTHONPATH=src python benchmarks/bench_wallclock.py --profile-out prof/
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import os
import platform
import time
from dataclasses import replace
from pathlib import Path

from repro.bench.executor import (
    QUICK,
    Cell,
    Effort,
    pool_info,
    run_cell,
    run_cells,
    run_options,
    run_session,
)
from repro.bench.harness import RunOptions
from repro.bench.telemetry import live_telemetry
from repro.np_compat import HAVE_NUMPY, np
from repro.core.buffer_manager import BufferManager, BufferManagerConfig
from repro.core.policy import SPITFIRE_LAZY
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import Tier
from repro.obs.export import (
    merge_snapshots,
    snapshot_jsonl_lines,
    write_jsonl,
    write_prometheus,
)
from repro.obs.hub import MetricsHub

#: The fig6 experiment's hierarchy and database size (§6.3 sweep).
SHAPE = HierarchyShape(dram_gb=12.5, nvm_gb=50.0, ssd_gb=200.0)
DB_GB = 100.0

INNER_LOOP_PAGES = 200
INNER_LOOP_OPS = 100_000
INNER_LOOP_BATCH = 1024

#: Max fractional wall-clock overhead of one attached plane over its
#: baseline — one budget for every row.  The largest row (metrics)
#: costs about 0.10 (0.086-0.114 in BENCH_history.jsonl; a median pair
#: of +0.10 on the 2-vCPU sandbox, tenancy and telemetry +0.05-0.06)
#: and pair ratios scatter by about 0.10 around that (interquartile
#: range over 10 pairs), so 0.20 clears it by the spread; the
#: minimum-of-pairs estimator only ever reads low, so noise alone
#: cannot trip it, while a plane whose cost doubles does.
OVERHEAD_BUDGET = 0.20

#: Floor on the batched/per-op inner-loop speedup the ratchet enforces.
MIN_BATCH_SPEEDUP = 5.0

#: Floor on the parallel speedup at --jobs 4 when >= 4 cores are
#: usable; scaled down as ``0.75 * usable_cpus`` on smaller machines
#: (a 1-core box can only be asked not to *lose* to serial).
MIN_PARALLEL_SPEEDUP = 3.0

#: Cells in the parallel figure-matrix measurement — a couple of cells
#: per worker, like a real figure grid, so chunk scheduling matters.
PARALLEL_MATRIX_CELLS = 8

#: Reduced effort for the parallel matrix (wall-clock budget; the
#: speedup ratio, not absolute time, is what the ratchet reads).
PARALLEL_MATRIX_EFFORT = Effort(warmup_ops=4_000, measure_ops=8_000)


def usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def bench_cell() -> Cell:
    """The fixed-seed fig6-style unit of work."""
    return Cell.tpcc("bench/fig6-style", SHAPE, SPITFIRE_LAZY, DB_GB,
                     effort=QUICK, extra_worker_counts=())


def time_cell_serial() -> dict:
    cell = bench_cell()
    t0 = time.perf_counter()
    res = run_cell(cell)
    elapsed = time.perf_counter() - t0
    return {
        "label": cell.label,
        "wall_seconds": round(elapsed, 3),
        "simulated_throughput_ops_per_s": res.throughput,
        # The saturation model's raw inputs: per-resource busy time,
        # operation counts, and bytes moved over the measured window.
        "resource_usage": res.resource_usage,
    }


def time_cell_overhead(name: str, baseline: RunOptions, attached: RunOptions,
                       check, overhead_budget: float,
                       repeats: int) -> tuple[dict, list[str]]:
    """One plane's wall-clock overhead on the fixed-seed cell.

    The cell runs under ``baseline`` and then under ``attached`` in
    ``repeats`` interleaved pairs, and the guard reads the *minimum*
    attached/baseline ratio over the pairs: back-to-back pairs cancel
    machine drift, and a real overhead shows up in every pair, so the
    minimum is robust against bursty noise on shared runners while
    still catching genuine hot-path regressions.  ``check(result)``
    gets the last attached result and returns ``(extra report fields,
    violations)`` — the row's structural proof that the plane was
    actually attached.  Returns the report fragment and the guard
    violations (empty when the perf-smoke assertions hold).
    """
    cell = bench_cell()
    best = {"baseline": float("inf"), "attached": float("inf")}
    ratios = []
    result = None
    for _ in range(max(1, repeats)):
        elapsed = {}
        for leg, options in (("baseline", baseline), ("attached", attached)):
            with run_options(options):
                t0 = time.perf_counter()
                result = run_cell(cell)
                elapsed[leg] = time.perf_counter() - t0
            best[leg] = min(best[leg], elapsed[leg])
        ratios.append(elapsed["attached"] / elapsed["baseline"])
    overhead = min(ratios) - 1.0
    violations = []
    if overhead > overhead_budget:
        violations.append(
            f"{name} overhead {overhead:+.1%} exceeds the "
            f"{overhead_budget:.0%} budget (baseline "
            f"{best['baseline']:.3f}s, attached {best['attached']:.3f}s)"
        )
    extra, unattached = check(result)
    violations.extend(unattached)
    return {
        "baseline_wall_seconds": round(best["baseline"], 3),
        "attached_wall_seconds": round(best["attached"], 3),
        "overhead_fraction": round(overhead, 4),
        "overhead_budget": overhead_budget,
        "pair_spread": round(max(ratios) - min(ratios), 4),
        **extra,
    }, violations


def check_metrics(result) -> tuple[dict, list[str]]:
    """Structural zero-cost check — exact, no timing noise: after a
    MetricsHub attach/detach cycle the bus must be indistinguishable
    from one that never saw observability."""
    violations: list[str] = []
    if result.metrics is None:
        violations.append("metrics-attached cell carried no snapshot")
    hierarchy = StorageHierarchy(SHAPE)
    bm = BufferManager(hierarchy, SPITFIRE_LAZY, BufferManagerConfig(seed=42))
    baseline_subscribers = bm.events.num_subscribers
    hub = MetricsHub().attach(bm)
    if not bm.events.is_subscribed(hub):
        violations.append("attached MetricsHub is not on the bus")
    hub.detach()
    if bm.events.num_subscribers != baseline_subscribers \
            or bm.events.is_subscribed(hub):
        violations.append(
            f"detached bus kept {bm.events.num_subscribers} subscribers "
            f"(baseline {baseline_subscribers}) — subscription leak"
        )
    return {"detach_restores_bus": not violations}, violations


def check_tenancy(result) -> tuple[dict, list[str]]:
    if set(result.tenant_breakdown or ()) == {0}:
        return {}, []
    return {}, ["tenant-tagged cell did not produce a tenant-0 breakdown — "
                "tagging was not actually active"]


def check_telemetry(result, aggregator) -> tuple[dict, list[str]]:
    violations = []
    if result.decision_trace is None:
        violations.append(
            "telemetry-attached cell carried no decision trace — "
            "decision tracing was not actually active"
        )
    # stop() drains up to its own sentinel, so the count is final.
    aggregator.stop(final_line=False)
    events = aggregator.summary()["events_seen"]
    if events == 0:
        violations.append(
            "telemetry-attached cell emitted no progress events — "
            "the channel was not actually wired into the harness"
        )
    return {
        "progress_events": events,
        "decision_spans": (len(result.decision_trace["spans"])
                           if result.decision_trace else 0),
    }, violations


def write_cell_metrics(metrics_out: str) -> None:
    """The metered cell's snapshot as Prometheus text + JSONL."""
    cell = bench_cell()
    with run_options(collect_metrics=True):
        metrics = run_cell(cell).metrics
    out = Path(metrics_out)
    write_prometheus(out / "metrics.prom", merge_snapshots([metrics]))
    write_jsonl(out / "metrics.jsonl",
                snapshot_jsonl_lines(metrics, cell.label))


def time_plane_overheads(overhead_budget: float,
                         repeats: int) -> tuple[dict, list[str]]:
    """Every plane's overhead row, keyed ``cell_with_<plane>``."""
    metered = RunOptions(collect_metrics=True)
    report: dict = {}
    violations: list[str] = []
    with live_telemetry(stream=io.StringIO()) as (channel, aggregator):
        rows = (
            ("metrics", RunOptions(), metered, check_metrics),
            ("tenancy", metered, replace(metered, track_tenants=True),
             check_tenancy),
            ("telemetry", RunOptions(),
             RunOptions(telemetry=channel, trace_decisions=0.05),
             lambda result: check_telemetry(result, aggregator)),
        )
        for name, baseline, attached, check in rows:
            report[f"cell_with_{name}"], failed = time_cell_overhead(
                name, baseline, attached, check, overhead_budget, repeats)
            violations.extend(failed)
    return report, violations


def time_cell_serve(repeats: int) -> dict:
    """Wall-clock the deterministic serving-plane replay.

    One ``serve-bench`` unit of work: generate the seeded open-loop
    schedule and replay it through admission + the single-server
    queueing model.  Fixed seed, so the SLO payload is byte-stable;
    only the wall clock varies across machines.
    """
    from repro.serve.bench import ServeBenchConfig, run_serve_bench

    config = ServeBenchConfig(seed=11, total_ops=4_000)
    best = float("inf")
    report = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        report = run_serve_bench(config)
        best = min(best, time.perf_counter() - t0)
    totals = report["totals"]
    return {
        "label": "serve-bench/seed11-4k",
        "wall_seconds": round(best, 3),
        "ops_per_second": round(totals["admitted"] / best, 1),
        "admitted": totals["admitted"],
        "shed": totals["shed"],
        "p99_ns": totals["latency"]["p99_ns"],
        "goodput_ops_per_s": totals["goodput_ops_per_s"],
    }


def matrix_cell(index: int) -> Cell:
    """One cell of the figure-matrix-style parallel batch."""
    return Cell.tpcc(f"bench/matrix-{index}", SHAPE, SPITFIRE_LAZY, DB_GB,
                     effort=PARALLEL_MATRIX_EFFORT, extra_worker_counts=())


def time_cells_parallel(jobs: int, cells: int = PARALLEL_MATRIX_CELLS) -> dict:
    """Serial vs pooled wall time for a figure-matrix-style batch.

    The session pool is warmed *before* the parallel timing, the way a
    suite run pays that cost once, so the measurement is of steady-state
    scheduling: chunk planning, context install, result demux — not
    interpreter fork/import time.
    """
    batch = [matrix_cell(i) for i in range(cells)]
    t0 = time.perf_counter()
    serial_results = run_cells(batch, jobs=1)
    serial = time.perf_counter() - t0
    with run_session(jobs=jobs):
        info = pool_info()
        t0 = time.perf_counter()
        parallel_results = run_cells(batch, jobs=jobs)
        parallel = time.perf_counter() - t0
    identical = (
        [r.throughput for r in serial_results]
        == [r.throughput for r in parallel_results]
    )
    return {
        "cells": cells,
        "jobs": jobs,
        "usable_cpus": usable_cpus(),
        "pool_start_method": info["start_method"] if info else None,
        "serial_wall_seconds": round(serial, 3),
        "parallel_wall_seconds": round(parallel, 3),
        "speedup": round(serial / parallel, 2) if parallel else None,
        "results_identical": identical,
    }


def _inner_loop_bm() -> BufferManager:
    hierarchy = StorageHierarchy(SHAPE)
    bm = BufferManager(hierarchy, SPITFIRE_LAZY, BufferManagerConfig(seed=42))
    bm.allocate_pages(range(INNER_LOOP_PAGES))
    for page_id in range(INNER_LOOP_PAGES):
        bm.prime_page(Tier.DRAM, page_id)
    return bm


def time_inner_loop(repeats: int) -> dict:
    bm = _inner_loop_bm()
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(INNER_LOOP_OPS):
            bm.read(i % INNER_LOOP_PAGES)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None or elapsed < best else best
    return {
        "operations": INNER_LOOP_OPS,
        "repeats": repeats,
        "best_wall_seconds": round(best, 4),
        "ops_per_second": round(INNER_LOOP_OPS / best, 1),
    }


def time_inner_loop_batched(repeats: int, per_op_ops_per_second: float,
                            profile_out: str | None = None) -> dict | None:
    """The same access stream as :func:`time_inner_loop`, batched.

    Chunks of ``INNER_LOOP_BATCH`` precomputed (page id, offset) columns
    go through ``BufferManager.read_batch``; the resulting stats and
    costs match the per-op loop exactly, so the ops/s ratio is a pure
    measurement of the batch path's vectorization win.  Returns None
    when numpy is unavailable (the batch path degrades to per-op).
    """
    if not HAVE_NUMPY:
        return None
    bm = _inner_loop_bm()
    read_batch = bm.read_batch
    chunks = []
    for start in range(0, INNER_LOOP_OPS, INNER_LOOP_BATCH):
        n = min(INNER_LOOP_BATCH, INNER_LOOP_OPS - start)
        page_ids = (np.arange(start, start + n, dtype=np.int64)
                    % INNER_LOOP_PAGES)
        chunks.append((page_ids, np.zeros(n, dtype=np.int64)))
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        for page_ids, offsets in chunks:
            read_batch(page_ids, offsets)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None or elapsed < best else best
    if profile_out:
        out = Path(profile_out)
        out.mkdir(parents=True, exist_ok=True)
        for name, body in (
            ("inner_loop_batched", lambda: [read_batch(p, o)
                                            for p, o in chunks]),
            ("inner_loop_per_op", lambda: [bm.read(i % INNER_LOOP_PAGES)
                                           for i in range(INNER_LOOP_OPS)]),
        ):
            profiler = cProfile.Profile()
            profiler.enable()
            body()
            profiler.disable()
            profiler.dump_stats(out / f"{name}.prof")
    ops_per_second = INNER_LOOP_OPS / best
    return {
        "operations": INNER_LOOP_OPS,
        "batch_size": INNER_LOOP_BATCH,
        "repeats": repeats,
        "best_wall_seconds": round(best, 4),
        "ops_per_second": round(ops_per_second, 1),
        "speedup_vs_per_op": round(ops_per_second / per_op_ops_per_second, 2),
    }


def parallel_speedup_floor(min_parallel_speedup: float, cpus: int) -> float:
    """The speedup the ratchet demands, scaled to the cores available.

    ``min(min_parallel_speedup, 0.75 * cpus)``: 3.0x on a 4-core
    machine, 1.5x on 2 cores, 0.75x on a 1-core box — where genuine
    parallelism is impossible, the pool must merely stay within ~25%
    of serial (persistent workers make that achievable; the old
    per-batch pool teardown did not).
    """
    return min(min_parallel_speedup, 0.75 * cpus)


def check_ratchet(report: dict, baseline_path: Path,
                  tolerance: float, min_batch_speedup: float,
                  min_parallel_speedup: float = MIN_PARALLEL_SPEEDUP,
                  ) -> list[str]:
    """Compare fresh inner-loop numbers against the committed baseline.

    Returns ratchet violations (empty when the run passes).  A missing
    baseline passes — the freshly written report becomes the baseline.
    """
    violations: list[str] = []
    batched = report.get("inner_loop_batched")
    if batched is not None and batched["speedup_vs_per_op"] < min_batch_speedup:
        violations.append(
            f"batched inner loop is only {batched['speedup_vs_per_op']:.2f}x "
            f"the per-op loop (floor: {min_batch_speedup:.1f}x)"
        )
    parallel = report.get("parallel")
    if parallel is not None and parallel.get("speedup") is not None:
        floor = parallel_speedup_floor(min_parallel_speedup,
                                       parallel["usable_cpus"])
        if parallel["speedup"] < floor:
            violations.append(
                f"parallel executor speedup {parallel['speedup']:.2f}x at "
                f"--jobs {parallel['jobs']} is below the "
                f"{floor:.2f}x floor for {parallel['usable_cpus']} usable "
                f"CPU(s)"
            )
        if not parallel.get("results_identical", True):
            violations.append(
                "parallel batch results differ from the serial run — "
                "determinism invariant broken"
            )
    if not baseline_path.exists():
        return violations
    baseline = json.loads(baseline_path.read_text())
    checks = [("inner_loop", "per-op inner loop")]
    if batched is not None and baseline.get("inner_loop_batched"):
        checks.append(("inner_loop_batched", "batched inner loop"))
    if report.get("cell_serve") and baseline.get("cell_serve"):
        checks.append(("cell_serve", "serving-plane replay"))
    for key, what in checks:
        old = baseline[key]["ops_per_second"]
        new = report[key]["ops_per_second"]
        if new < old * (1.0 - tolerance):
            violations.append(
                f"{what} regressed {1.0 - new / old:.1%}: "
                f"{new:,.0f} ops/s vs baseline {old:,.0f} "
                f"(tolerance {tolerance:.0%})"
            )
    # Speedup is only comparable between machines with the same core
    # budget — a 1-core CI runner cannot be held to a 4-core baseline.
    old_parallel = baseline.get("parallel")
    if (parallel is not None and old_parallel is not None
            and parallel.get("speedup") is not None
            and old_parallel.get("speedup") is not None
            and parallel["usable_cpus"] == old_parallel["usable_cpus"]):
        old_speedup = old_parallel["speedup"]
        new_speedup = parallel["speedup"]
        if new_speedup < old_speedup * (1.0 - tolerance):
            violations.append(
                f"parallel speedup regressed "
                f"{1.0 - new_speedup / old_speedup:.1%}: "
                f"{new_speedup:.2f}x vs baseline {old_speedup:.2f}x "
                f"(tolerance {tolerance:.0%})"
            )
    return violations


def git_sha() -> str | None:
    """The current commit (short), or None outside a git checkout."""
    try:
        import subprocess

        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=Path(__file__).parent,
        )
        return proc.stdout.strip() or None
    except Exception:
        return None


def history_entry(report: dict, check_passed: bool) -> dict:
    """One flat append-only line summarizing this run."""
    parallel = report.get("parallel") or {}
    batched = report.get("inner_loop_batched") or {}
    return {
        "ts": round(time.time(), 3),
        "git_sha": git_sha(),
        "python": report["python"],
        "machine": report["machine"],
        "usable_cpus": usable_cpus(),
        "inner_loop_ops_per_second": report["inner_loop"]["ops_per_second"],
        "batched_ops_per_second": batched.get("ops_per_second"),
        "batch_speedup": batched.get("speedup_vs_per_op"),
        "parallel_speedup": parallel.get("speedup"),
        "cell_wall_seconds": report["cell"]["wall_seconds"],
        "serve_ops_per_second":
            (report.get("cell_serve") or {}).get("ops_per_second"),
        "metrics_overhead_fraction":
            report["cell_with_metrics"]["overhead_fraction"],
        "tenancy_overhead_fraction":
            report["cell_with_tenancy"]["overhead_fraction"],
        "telemetry_overhead_fraction":
            report["cell_with_telemetry"]["overhead_fraction"],
        "check_passed": check_passed,
    }


def append_history(path: Path, entry: dict) -> Path:
    """Append one JSON line to the run-history log (append-only)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4, metavar="N",
                        help="worker processes for the parallel-speedup "
                             "measurement (default: 4; 0 or 1 skips it)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="inner-loop passes; best is reported")
    parser.add_argument("--out", metavar="PATH",
                        default=str(Path(__file__).parent / "BENCH_repro.json"),
                        help="where to write the JSON report")
    parser.add_argument("--overhead-budget", type=float,
                        default=OVERHEAD_BUDGET, metavar="FRAC",
                        help="max fractional wall-clock overhead of any one "
                             "attached plane (metrics, tenancy, telemetry) "
                             f"over its baseline (default: {OVERHEAD_BUDGET})")
    parser.add_argument("--history", metavar="PATH",
                        default=str(Path(__file__).parent
                                    / "BENCH_history.jsonl"),
                        help="append-only JSONL run-history log "
                             "(default: BENCH_history.jsonl next to this "
                             "script)")
    parser.add_argument("--no-history", action="store_true",
                        help="skip appending to the run-history log")
    parser.add_argument("--metrics-out", metavar="DIR",
                        help="also write the attached cell's metrics as "
                             "Prometheus text + JSONL under DIR")
    parser.add_argument("--check", action="store_true",
                        help="ratchet mode: fail on inner-loop regression "
                             "beyond --tolerance vs the committed baseline; "
                             "improvements update the baseline in place")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        metavar="FRAC",
                        help="max fractional inner-loop regression --check "
                             "accepts (default: 0.10)")
    parser.add_argument("--min-batch-speedup", type=float,
                        default=MIN_BATCH_SPEEDUP, metavar="X",
                        help="floor on the batched/per-op speedup --check "
                             f"enforces (default: {MIN_BATCH_SPEEDUP})")
    parser.add_argument("--min-parallel-speedup", type=float,
                        default=MIN_PARALLEL_SPEEDUP, metavar="X",
                        help="floor on the parallel executor speedup --check "
                             "enforces on a machine with >= 4 usable CPUs; "
                             "scaled down as 0.75 * usable_cpus below that "
                             f"(default: {MIN_PARALLEL_SPEEDUP})")
    parser.add_argument("--profile-out", metavar="DIR",
                        help="dump cProfile stats of the per-op and batched "
                             "inner loops under DIR")
    args = parser.parse_args(argv)

    overheads, violations = time_plane_overheads(
        args.overhead_budget, args.repeats)
    if args.metrics_out:
        write_cell_metrics(args.metrics_out)
    inner = time_inner_loop(args.repeats)
    inner_batched = time_inner_loop_batched(
        args.repeats, inner["ops_per_second"], args.profile_out
    )
    report = {
        "benchmark": "bench_wallclock",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "inner_loop": inner,
        "cell": time_cell_serial(),
        "cell_serve": time_cell_serve(args.repeats),
        **overheads,
    }
    if inner_batched is not None:
        report["inner_loop_batched"] = inner_batched
    if args.jobs > 1:
        report["parallel"] = time_cells_parallel(args.jobs)

    out = Path(args.out)
    ratchet_violations: list[str] = []
    if args.check:
        ratchet_violations = check_ratchet(
            report, out, args.tolerance, args.min_batch_speedup,
            args.min_parallel_speedup,
        )
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.check and ratchet_violations:
        # A failing ratchet keeps the committed baseline untouched so the
        # bar does not silently lower itself.
        print(f"kept existing baseline {out}")
    else:
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {out}")
    violations.extend(ratchet_violations)
    for violation in violations:
        print(f"PERF GUARD FAILED: {violation}")
    if not args.no_history:
        history = append_history(Path(args.history),
                                 history_entry(report, not violations))
        print(f"appended run summary to {history}")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
