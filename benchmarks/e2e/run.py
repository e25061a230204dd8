#!/usr/bin/env python3
"""End-to-end, layered wall-clock benchmark of the Spitfire simulator.

    python3 benchmarks/e2e/run.py                      # every workload
    python3 benchmarks/e2e/run.py --workload tpcc_wal  # one workload
    python3 benchmarks/e2e/run.py --trace              # per-layer numbers
    python3 benchmarks/e2e/run.py --out A.json         # keep a run set
    python3 benchmarks/e2e/run.py --compare A.json B.json

One workload runs in the invoked interpreter (so each gets a fresh
process); without ``--workload`` the runner re-invokes itself once per
workload.  Untraced runs print every end-to-end metric by name and unit
after checking the outputs; ``--trace`` does a separate run with spans
installed and prints the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Any correctness failure makes the exit code non-zero.

See README.md in this directory for the metric, workload and
interaction tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads  # imports ``repro`` only when a workload runs
from workloads import HERE, ROOT, WORK

EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 3
DEFAULT_SECONDS = 10
MIN_REPS = 3
SETUP_PROBES = 5
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)


def fail(message: str):
    print(f"benchmarks/e2e: {message}", file=sys.stderr)
    raise SystemExit(2)


# ----------------------------------------------------------------------
# Statistics and output
# ----------------------------------------------------------------------
def summarize(values: list[float], unit: str, pick=statistics.median) -> dict:
    """The reported value with the median, quartiles and sample count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": pick(values), "unit": unit,
            "median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count()}


def print_record(record: dict) -> None:
    name = record["workload"]
    for metric, entry in record["metrics"].items():
        spread = (f"  (median {entry['median']:.6g}, q1 {entry['q1']:.6g}, "
                  f"q3 {entry['q3']:.6g}, n={entry['n']})"
                  if "n" in entry else "")
        print(f"{name:13s} {metric:34s} {entry['value']:>14.6g} "
              f"{entry['unit']}{spread}")
    print(f"{name:13s} {'error_rate':34s} {record['error_rate']:>14.6g} "
          f"fraction  ({record['failed']} of {record['attempted']} ops)")
    for problem in record["problems"]:
        print(f"{name:13s} FAILED: {problem}")


def result_line(records: list[dict], prefixed: bool = False) -> str:
    """The machine-readable last line: exactly these four keys."""
    return json.dumps({
        "correct": all(record["correct"] for record in records),
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": {
            (f"{record['workload']}.{name}" if prefixed else name):
                {"value": entry["value"], "unit": entry["unit"]}
            for record in records
            for name, entry in record["metrics"].items()
        },
    })


def expected_entry(args, workload) -> dict | None:
    """The pinned digest, which exists at the default seed only."""
    if args.seed != DEFAULT_SEED:
        return None
    table = json.loads(Path(args.expected).read_text())
    return table["smoke" if args.smoke else "full"].get(workload.name)


def finish_record(args, workload, reps, metrics: dict,
                  problems: list[str]) -> dict:
    problem = workload.check(reps, expected_entry(args, workload))
    if problem:
        problems.append(problem)
    problems.extend(rep.info["error"] for rep in reps if "error" in rep.info)
    attempted = sum(rep.attempted for rep in reps)
    # A run-level problem (digest, golden, trace) fails all its ops.
    failed = attempted if problem else sum(rep.failed for rep in reps)
    record = {
        "workload": workload.name, "seed": args.seed, "smoke": args.smoke,
        "trace": bool(args.trace), "correct": not problems,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted, "problems": problems,
        "metrics": metrics, "env": environment(),
    }
    sim = [rep.info["sim_ops_per_s"] for rep in reps
           if "sim_ops_per_s" in rep.info]
    if sim:
        record["sim_ops_per_s"] = sim[0]
    return record


# ----------------------------------------------------------------------
# One workload, untraced: the end-to-end metrics
# ----------------------------------------------------------------------
def measure(args, workload_cls) -> dict:
    workload = workload_cls(args.seed, args.smoke)
    # Set-up time, several times over: fresh interpreters that import,
    # construct the workload and run its warm repetition.
    probe_walls = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        started = time.perf_counter()
        subprocess.run(workload.probe_argv(Path(__file__).resolve()),
                       cwd=ROOT, env=workloads.child_env(), check=True,
                       stdout=subprocess.DEVNULL)
        probe_walls.append(time.perf_counter() - started)

    workload.warm()
    reps = []
    began = time.perf_counter()
    while len(reps) < MIN_REPS \
            or time.perf_counter() - began < args.seconds:
        reps.append(workload.repetition())

    walls = [rep.wall_s for rep in reps]
    who = resource.RUSAGE_CHILDREN if workload.in_children \
        else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux
    # Every repetition does identical work, so whatever a repetition
    # takes beyond the fastest one is interference from the shared host,
    # which comes in spells longer than a run: the fastest repetition is
    # the steadiest estimate of the program's own cost (README
    # "Steadiness").  The median and quartiles are printed beside it.
    metrics = {
        "setup_s": summarize(probe_walls, "s"),
        "wall_s": summarize(walls, "s", pick=min),
        "host_ops_per_s": summarize([workload.ops / w for w in walls], "1/s",
                                    pick=max),
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }
    assert list(metrics) == [m.name for m in layers.END_TO_END]
    return finish_record(args, workload, reps, metrics, [])


# ----------------------------------------------------------------------
# One workload, traced: the per-layer metrics
# ----------------------------------------------------------------------
def trace(args, workload_cls) -> dict:
    from tracer import Tracer

    workload = workload_cls(args.seed, args.smoke)
    workload.warm()
    untraced = workload.repetition(diagnostics=True)
    distinct_pages = workload.distinct_pages()

    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.repetition(tracer)
    finally:
        tracer.uninstall()

    problems = []
    if tracer.unresolved:
        problems.append(f"unresolved span targets: {tracer.unresolved}")
    totals = tracer.span_totals()
    self_sum = sum(entry["self_s"] for entry in totals.values())
    if tracer.root_s <= 0 \
            or abs(self_sum - tracer.root_s) > 0.01 * tracer.root_s:
        problems.append(f"self times sum to {self_sum:.6f} s, "
                        f"root is {tracer.root_s:.6f} s")

    values = dict.fromkeys((m.name for m in layers.per_layer_metrics()), 0.0)
    for name in layers.SPAN_NAMES:
        entry = totals.get(name, {"calls": 0, "self_s": 0.0})
        values[f"{name}.self_s"] = entry["self_s"]
        values[f"{name}.calls"] = entry["calls"]
    results = tracer.kept.get("bench.executor.run_cell", [])
    values.update(workloads.cell_counts(results))
    values.update(wal_counts(tracer, totals))
    values.update(workload.counts(untraced, traced))
    values["workloads.distinct_pages"] = distinct_pages
    for phase, seconds in tracer.phase_s.items():
        values[f"bench.phase.{phase}_s"] = seconds
    if "sim_ops_per_s" in traced.info:
        values["bench.sim_ops_per_s"] = traced.info["sim_ops_per_s"]
    values["bench.host_us_per_op"] = untraced.wall_s / workload.ops * 1e6
    values["bench.trace_overhead_frac"] = \
        traced.wall_s / untraced.wall_s - 1 if untraced.wall_s else 0.0
    values["bench.unattributed_frac"] = \
        tracer.root_self_s() / tracer.root_s if tracer.root_s else 0.0
    values["bench.unresolved_spans"] = len(tracer.unresolved)
    values["bench.dropped_raw_spans"] = tracer.dropped_raw_spans

    tracer.write(WORK / f"trace-{workload.name}.json",
                 workload=workload.name, seed=args.seed, smoke=args.smoke,
                 untraced_wall_s=untraced.wall_s, traced_wall_s=traced.wall_s)
    units = {m.name: m.unit for m in layers.per_layer_metrics()}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    return finish_record(args, workload, [untraced, traced], metrics,
                         problems)


def wal_counts(tracer, totals: dict) -> dict:
    """WAL counts from the logs and checkpointers the traced run built."""
    logs = tracer.kept.get("wal.append", [])
    checkpointers = tracer.kept.get("wal.checkpoint", [])
    appended = sum(log.stats.bytes_appended for log in logs)
    writes = totals.get("core.write", {}).get("calls", 0)
    return {
        "wal.records_appended":
            sum(log.stats.records_appended for log in logs),
        "wal.bytes_appended": appended,
        "wal.bytes_per_write": appended / writes if writes else 0.0,
        "wal.nvm_buffer_drains":
            sum(log.stats.nvm_buffer_drains for log in logs),
        "wal.checkpoints_taken":
            sum(c.checkpoints_taken for c in checkpointers),
        "wal.pages_flushed": sum(c.pages_flushed for c in checkpointers),
    }


# ----------------------------------------------------------------------
# Every workload: one fresh interpreter each
# ----------------------------------------------------------------------
def run_all(args) -> int:
    WORK.mkdir(exist_ok=True)
    records = []
    for name in WORKLOAD_NAMES:
        out = WORK / f"run-{name}.json"
        out.unlink(missing_ok=True)
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--expected", str(args.expected), "--out", str(out)]
        if args.smoke:
            argv.append("--smoke")
        done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=False)
        # The child's last line is its machine-readable result.
        sys.stdout.write("".join(done.stdout.splitlines(True)[:-1]))
        sys.stdout.flush()
        if not out.is_file():
            fail(f"workload {name} exited {done.returncode} without a result")
        records.append(json.loads(out.read_text()))
    document = {
        "smoke": args.smoke, "trace": bool(args.trace), "seed": args.seed,
        "seconds": args.seconds, "env": environment(),
        "workloads": {record["workload"]: record for record in records},
    }
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    print(result_line(records, prefixed=True))
    return 0 if all(record["correct"] for record in records) else 1


# ----------------------------------------------------------------------
# --compare, --update-expected, --sync-docs
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """Two run sets of one commit (or two commits), pair by pair."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for path, document in ((path_a, a), (path_b, b)):
        if document.get("smoke"):
            fail(f"{path} is a --smoke run: its numbers mean nothing")
        if document.get("trace"):
            fail(f"{path} is a --trace run: compare untraced run sets")
    outside = 0
    print(f"{'workload':13s} {'metric':16s} {'A':>14s} {'B':>14s} "
          f"{'B worse by':>11s} {'bound':>6s}")
    for name in WORKLOAD_NAMES:
        rec_a, rec_b = a["workloads"][name], b["workloads"][name]
        for metric in layers.END_TO_END:
            va = rec_a["metrics"][metric.name]["value"]
            vb = rec_b["metrics"][metric.name]["value"]
            worse = (vb - va) / va if metric.better == "lower" \
                else (va - vb) / va
            flag = ""
            if abs(worse) > metric.bound:
                outside += 1
                flag = "  OUTSIDE"
            print(f"{name:13s} {metric.name:16s} {va:>14.6g} {vb:>14.6g} "
                  f"{worse:>+11.2%} {metric.bound:>6.2f}{flag}")
        # Zero-tolerance checks: no failed op, simulated numbers exact.
        for label, va, vb in (
                ("error_rate", rec_a["error_rate"], rec_b["error_rate"]),
                ("sim_ops_per_s", rec_a.get("sim_ops_per_s"),
                 rec_b.get("sim_ops_per_s"))):
            if va is None and vb is None:
                continue
            bad = va != vb or (label == "error_rate" and va != 0)
            outside += bad
            print(f"{name:13s} {label:16s} {va!r:>14} {vb!r:>14} "
                  f"{'':>11s} {0:>6.2f}{'  OUTSIDE' if bad else ''}")
    print(f"{outside} pair(s) outside their bound")
    return 1 if outside else 0


def update_expected(args) -> int:
    """Rewrite expected.json from one repetition per cell and scale."""
    table: dict = {"seed": DEFAULT_SEED}
    for scale, smoke in (("full", False), ("smoke", True)):
        table[scale] = {}
        for name, cls in workloads.WORKLOADS.items():
            if not issubclass(cls, workloads.CellWorkload):
                continue
            rep = cls(DEFAULT_SEED, smoke).repetition()
            if rep.failed:
                fail(f"{name} failed: {rep.info.get('error')}")
            table[scale][name] = {"digest": rep.info["digest"],
                                  "sim_ops_per_s": rep.info["sim_ops_per_s"]}
    Path(args.expected).write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {args.expected}")
    return 0


def benchmark_json() -> str:
    why = {name: cls.why for name, cls in workloads.WORKLOADS.items()}
    return json.dumps({
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": DEFAULT_SECONDS,
        "workloads": [{"name": name, "why": why[name]}
                      for name in WORKLOAD_NAMES],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in layers.END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in layers.per_layer_metrics()],
    }, indent=1) + "\n"


def readme_tables() -> str:
    lines = ["### End-to-end metrics", "",
             "| name | unit | better | bound | definition |",
             "|---|---|---|---|---|"]
    lines += [f"| `{m.name}` | {m.unit} | {m.better} | {m.bound:.2f} | "
              f"{m.definition} |" for m in layers.END_TO_END]
    lines += ["", "### Workloads", "", "| name | why |", "|---|---|"]
    lines += [f"| `{name}` | {cls.why} |"
              for name, cls in workloads.WORKLOADS.items()]
    lines += ["", "### Spans (each yields `<span>.self_s` and "
              "`<span>.calls`)", "", "| span | public callables timed |",
              "|---|---|"]
    for span in layers.SPANS:
        targets = ", ".join(f"`{t.partition(':')[2]}`" for t in span.targets) \
            or "opened by the benchmark itself"
        lines.append(f"| `{'`, `'.join(span.names)}` | {targets} |")
    lines += ["", "### Per-layer counts", "",
              "| name | unit | better | read from |", "|---|---|---|---|"]
    lines += [f"| `{m.name}` | {m.unit} | {m.better} | {m.definition} |"
              for m in layers.COUNTS]
    lines += ["", "### How they interact (written before measuring)", "",
              "| layer metrics | should move | on | predicted no change on |",
              "|---|---|---|---|"]
    lines += [f"| {i.layers} | {i.should_move} | {i.on} | {i.no_change_on} |"
              for i in layers.INTERACTIONS]
    return "\n".join(lines) + "\n"


README_BEGIN = "<!-- generated by run.py --sync-docs: begin -->\n"
README_END = "<!-- generated by run.py --sync-docs: end -->\n"


def synced_readme(text: str) -> str:
    head, _, rest = text.partition(README_BEGIN)
    _, _, tail = rest.partition(README_END)
    return head + README_BEGIN + readme_tables() + README_END + tail


def sync_docs() -> int:
    (ROOT / "BENCHMARK.json").write_text(benchmark_json())
    readme = HERE / "README.md"
    readme.write_text(synced_readme(readme.read_text()))
    print("wrote BENCHMARK.json and the generated tables of README.md")
    return 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload in this interpreter "
                             "(default: all, one interpreter each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seeds workload generation (default: 3)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measure repetitions for this long "
                             "(at least 3 repetitions)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="a separate run with spans installed: the "
                             "per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="2 %% of the op counts, 3 repetitions: checks "
                             "the plumbing, measures nothing")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the full result document to FILE")
    parser.add_argument("--expected", default=str(EXPECTED),
                        help="pinned digests (default: expected.json)")
    parser.add_argument("--update-expected", action="store_true",
                        help="rewrite the pinned digests; a change that "
                             "claims a gain may not")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two --out documents pair by pair")
    parser.add_argument("--sync-docs", action="store_true",
                        help="regenerate BENCHMARK.json and README tables")
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = 0

    if args.compare:
        return compare(*args.compare)
    # The program under test comes from this checkout's src/.
    if not (ROOT / "src" / "repro").is_dir():
        fail(f"no src/repro under {ROOT}: nothing to benchmark")
    sys.path.insert(0, str(ROOT / "src"))
    if args.sync_docs:
        return sync_docs()
    if args.update_expected:
        return update_expected(args)
    if args.workload is None:
        return run_all(args)

    workload_cls = workloads.WORKLOADS[args.workload]
    if args.probe:
        workload_cls(args.seed, args.smoke).warm()
        return 0
    record = trace(args, workload_cls) if args.trace \
        else measure(args, workload_cls)
    print_record(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(result_line([record]))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
