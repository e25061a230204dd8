"""The benchmark's catalogue: metrics, spans, and how they interact.

Single source for

* the end-to-end metrics and their regression bounds (``END_TO_END``),
* the span table — span name -> the public callables timed under that
  name (``SPANS``); :mod:`tracer` installs wrappers from it, and a
  target that no longer resolves is reported as
  ``bench.unresolved_spans`` and fails ``--trace``,
* the per-layer counts read from public results (``COUNTS``),
* the interaction table written *before* measuring (``INTERACTIONS``):
  which layer numbers should move which end-to-end metric on which
  workload, and where the prediction is *no change*.

``run.py --sync-docs`` regenerates ``BENCHMARK.json`` and the tables in
``README.md`` from this module; ``test_e2e_bench.py`` asserts they are
in sync.  Nothing here imports ``repro`` — targets are strings resolved
by the tracer — so the catalogue loads in a checkout without ``src/``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    definition: str
    #: Share of the parent's median by which an end-to-end metric may
    #: worsen before a change counts as a regression (per-layer: None).
    bound: float | None = None


# Timing bounds come from the measured run-to-run spread on the 2-core
# sandbox (README "Steadiness"): a third of the bound must cover it.
END_TO_END = (
    Metric("setup_s", "s", "lower",
           "fresh interpreter -> end of its first (reduced) repetition: "
           "start-up, imports, spec/schedule construction, server start + "
           "connect, one warm repetition; median of 5 fresh processes "
           "(suite_cli: wall of `python -m repro.cli --list`)", 0.25),
    Metric("wall_s", "s", "lower",
           "host wall of one timed repetition of the workload's fixed "
           "work: the fastest of the repetitions that fit in --seconds "
           "(at least 3); median and quartiles printed beside it", 0.25),
    Metric("host_ops_per_s", "1/s", "higher",
           "the workload's stated op count / wall_s", 0.25),
    Metric("peak_rss_mb", "MiB", "lower",
           "ru_maxrss of the measuring process (its children for "
           "suite_cli)", 0.10),
)


@dataclass(frozen=True)
class Span:
    """One layer boundary: every listed callable is timed as ``name``."""

    name: str
    #: ``"module:attr.path"`` of public callables, patched where they
    #: are *looked up* (a ``from x import f`` rebinding is its own
    #: target).  Empty for spans the benchmark opens itself.
    targets: tuple[str, ...] = ()
    #: Suffixes appended from the receiver's ``resource_key`` (one span
    #: per device); the listed ones become per-layer metrics.
    split: tuple[str, ...] = ()
    #: Entering the span moves ``bench.phase.*`` to this phase.
    phase: str | None = None
    #: Retain distinct receivers ("receiver") or return values
    #: ("result") so counts can be read from their public attributes.
    keep: str | None = None

    @property
    def names(self) -> tuple[str, ...]:
        if self.split:
            return tuple(f"{self.name}.{suffix}" for suffix in self.split)
        return (self.name,)


_BM = "repro.core.buffer_manager:BufferManager"
_AP = "repro.core.access_path:AccessPath"
_SM = "repro.core.space_manager:SpaceManager"
_FG = "repro.core.fine_grained:FineGrainedOps"
_BUS = "repro.core.events:EventBus"
_DEV = "repro.hardware.device:Device"
_SH = "repro.hardware.cost_model:StorageHierarchy"
_WR = "repro.bench.harness:WorkloadRunner"
_YCSB = "repro.workloads.ycsb:YcsbWorkload"
_TPCC = "repro.workloads.tpcc:TpccWorkload"
_LOG = "repro.wal.log_manager:LogManager"
_CKPT = "repro.wal.checkpoint:Checkpointer"
_ENG = "repro.engine.engine:StorageEngine"
_HUB = "repro.obs.hub:MetricsHub"
_EXP = "repro.obs.export"
_REP = "repro.bench.reporting"
_ADM = "repro.serve.admission:AdmissionController"


def _replacers(*methods: str) -> tuple[str, ...]:
    return tuple(
        f"repro.replacement.{module}:{cls}.{method}"
        for module, cls in (("clock", "ClockReplacer"), ("lru", "LruReplacer"),
                            ("fifo", "FifoReplacer"))
        for method in methods
    )


SPANS = (
    # bench / cli
    Span("cli.main", ("repro.cli:main",)),
    Span("bench.executor.run_cell", ("repro.bench.executor:run_cell",),
         phase="build", keep="result"),
    Span("bench.harness.allocate", (f"{_WR}.allocate_database",),
         phase="allocate"),
    Span("bench.harness.op", (f"{_WR}.run_ycsb_op", f"{_WR}.run_access"),
         phase="warmup"),
    Span("bench.harness.reset", (f"{_SH}.reset_accounting",),
         phase="measure"),
    Span("bench.reporting",
         (f"{_REP}:ExperimentResult.render",
          f"{_REP}:ExperimentResult.save_json",
          f"{_REP}:build_run_summary"), phase="export"),
    # workloads
    Span("workloads.gen",
         (f"{_YCSB}.next_op", f"{_YCSB}.next_ops", f"{_YCSB}.page_of",
          f"{_YCSB}.offset_of", f"{_TPCC}.next_transaction")),
    Span("workloads.popularity",
         (f"{_YCSB}.page_popularity", f"{_TPCC}.page_popularity"),
         phase="popularity"),
    # core
    Span("core.prime", (f"{_BM}.prime_page",), phase="prime"),
    Span("core.read", (f"{_BM}.read", f"{_BM}.read_batch")),
    Span("core.write", (f"{_BM}.write",)),
    # Every top-tier hit is served here, fine-grained layout or not —
    # which is why it is not part of ``core.fine_grained``.
    Span("core.serve",
         (f"{_FG}.serve_resident_access", f"{_AP}.serve_direct")),
    Span("core.miss", (f"{_AP}.fetch_from_ssd", f"{_AP}.install")),
    Span("core.evict",
         (f"{_SM}.ensure_space", f"{_SM}.insert_with_space",
          f"{_SM}.evict_from_node")),
    Span("core.migration",
         ("repro.core.migration:MigrationEngine.decide",)),
    Span("core.flush", (f"{_BM}.flush_dirty_dram", f"{_BM}.flush_all")),
    Span("core.fine_grained",
         (f"{_FG}.serve_cacheline_access", f"{_FG}.charge_fine_grained_load",
          f"{_FG}.install_fine_grained", f"{_FG}.promote_mini_page",
          f"{_FG}.promote_to_full_residency")),
    Span("core.events", (f"{_BUS}.publish", f"{_BUS}.publish_op_batch")),
    Span("replacement",
         _replacers("record_access", "record_access_batch", "victim")),
    # hardware
    Span("hardware.device",
         (f"{_DEV}.read", f"{_DEV}.write", f"{_DEV}.read_batch",
          f"{_DEV}.write_batch", f"{_DEV}.persist_barrier"),
         split=("dram", "nvm", "ssd")),
    Span("hardware.cpu", (f"{_SH}.charge_cpu", f"{_SH}.charge_cpu_batch")),
    # wal / engine
    Span("wal.append", (f"{_LOG}.append",), keep="receiver"),
    Span("wal.commit", (f"{_LOG}.commit",)),
    Span("wal.checkpoint", (f"{_CKPT}.note_operation", f"{_CKPT}.checkpoint"),
         keep="receiver"),
    Span("wal.recovery", ("repro.wal.recovery:RecoveryManager.recover",)),
    Span("engine",
         tuple(f"{_ENG}.{op}" for op in (
             "create_table", "begin", "commit", "abort", "execute", "insert",
             "read", "update", "delete", "scan", "simulate_crash"))),
    # obs
    Span("obs.hub",
         (f"{_HUB}.attach", f"{_HUB}.detach", f"{_HUB}.apply_event",
          f"{_HUB}.apply_op_batch", f"{_HUB}.snapshot")),
    Span("obs.export",
         (f"{_EXP}:write_prometheus", f"{_EXP}:write_jsonl",
          f"{_EXP}:merge_snapshots", f"{_EXP}:snapshot_jsonl_lines"),
         phase="export"),
    # serve
    Span("serve.server"),  # root: opened by the benchmark around one run
    Span("serve.protocol",
         ("repro.serve.protocol:encode_message",
          "repro.serve.protocol:decode_message")),
    Span("serve.admission", (f"{_ADM}.try_admit", f"{_ADM}.release")),
    Span("serve.slo",
         ("repro.serve.slo:build_slo_report",
          "repro.serve.server:build_slo_report")),
    Span("serve.client"),  # the benchmark's own client code
)

SPAN_NAMES = tuple(name for span in SPANS for name in span.names)

#: bench.phase.* order; a trigger span only ever moves a cell forward.
PHASES = ("build", "allocate", "popularity", "prime", "warmup", "measure",
          "export")


COUNTS = (
    # core: RunResult.stats of the traced repetition's cells (summed)
    Metric("core.dram_hit_ratio", "fraction", "higher",
           "stats.dram_hits / (reads + writes)"),
    Metric("core.nvm_hits", "count", "higher", "stats.nvm_hits"),
    Metric("core.ssd_fetches", "count", "lower", "stats.ssd_fetches"),
    Metric("core.dram_evictions", "count", "lower", "stats.dram_evictions"),
    Metric("core.nvm_evictions", "count", "lower", "stats.nvm_evictions"),
    Metric("core.upward_migrations", "count", "lower",
           "stats.upward_migrations"),
    Metric("core.downward_migrations", "count", "lower",
           "stats.downward_migrations"),
    Metric("core.dirty_page_flushes", "count", "lower",
           "stats.dirty_page_flushes"),
    Metric("core.inclusivity", "fraction", "lower",
           "RunResult.inclusivity (mean over cells)"),
    # hardware: RunResult.resource_usage / makespan (measurement window)
    Metric("hardware.cpu_busy_sim_ms", "sim-ms", "lower",
           "resource_usage['cpu'].busy_ns"),
    Metric("hardware.dram_busy_sim_ms", "sim-ms", "lower",
           "resource_usage['dram'].busy_ns"),
    Metric("hardware.nvm_busy_sim_ms", "sim-ms", "lower",
           "resource_usage['nvm'].busy_ns"),
    Metric("hardware.ssd_busy_sim_ms", "sim-ms", "lower",
           "resource_usage['ssd'].busy_ns"),
    Metric("hardware.nvm_write_mb", "MB", "lower", "RunResult.nvm_write_gb"),
    Metric("hardware.ssd_ops", "count", "lower",
           "resource_usage['ssd'].operations"),
    Metric("hardware.sim_makespan_ms", "sim-ms", "lower",
           "RunResult.makespan_ns"),
    # wal: LogManager.stats / Checkpointer of every log the run built
    # (whole run, warm-up included — they are not reset with the stats)
    Metric("wal.records_appended", "count", "lower",
           "LogManager.stats.records_appended"),
    Metric("wal.bytes_appended", "B", "lower",
           "LogManager.stats.bytes_appended"),
    Metric("wal.bytes_per_write", "B", "lower",
           "bytes_appended / core.write.calls"),
    Metric("wal.nvm_buffer_drains", "count", "lower",
           "LogManager.stats.nvm_buffer_drains"),
    Metric("wal.checkpoints_taken", "count", "lower",
           "Checkpointer.checkpoints_taken"),
    Metric("wal.pages_flushed", "count", "lower",
           "Checkpointer.pages_flushed"),
    # workloads: properties of the generated input
    Metric("workloads.write_fraction", "fraction", "lower",
           "writes / (reads + writes) of the measured ops"),
    Metric("workloads.distinct_pages", "count", "lower",
           "distinct pages the generated op stream touches"),
    # obs (suite_cli): the --metrics-out export
    Metric("obs.series", "count", "lower",
           "sample lines in the Prometheus export"),
    Metric("obs.export_bytes", "B", "lower",
           "size of the .prom + .jsonl exports"),
    # serve (serve_live): client-side walls and the server's SLO report
    Metric("serve.req_p50_us", "us", "lower",
           "client-side wall per request, send -> reply decoded, p50"),
    Metric("serve.req_p95_us", "us", "lower", "same, p95"),
    Metric("serve.req_p99_us", "us", "lower", "same, p99"),
    Metric("serve.req_p999_us", "us", "lower", "same, p99.9"),
    Metric("serve.queue_wait_p50_us", "us", "lower",
           "server SLO report: dispatch-queue wait p50"),
    Metric("serve.queue_wait_p99_us", "us", "lower", "same, p99"),
    Metric("serve.sim_us_per_op", "sim-us", "lower",
           "shutdown()['sim_ns'] / served"),
    Metric("serve.ping_rtt_us", "us", "lower",
           "median of 1,000 ping round trips: the wire + asyncio floor"),
    Metric("serve.bytes_per_req", "B", "lower",
           "request + reply frame bytes per request"),
    Metric("serve.shed", "count", "lower", "shutdown()['shed']"),
    # bench: phases, simulated throughput, and the trace's own cost
    *(Metric(f"bench.phase.{phase}_s", "s", "lower",
             f"host time of the traced run's cells in phase '{phase}'")
      for phase in PHASES),
    Metric("bench.sim_ops_per_s", "1/sim-s", "higher",
           "RunResult.throughput of the cell workloads: repeats exactly "
           "at a fixed seed, so any movement is a behaviour change"),
    Metric("bench.host_us_per_op", "us", "lower",
           "untraced wall of one repetition / its op count"),
    Metric("bench.trace_overhead_frac", "fraction", "lower",
           "traced wall / untraced wall - 1"),
    Metric("bench.unattributed_frac", "fraction", "lower",
           "the root span's own self time / the root's duration"),
    Metric("bench.unresolved_spans", "count", "lower",
           "span-table targets that failed to resolve (must be 0)"),
    Metric("bench.dropped_raw_spans", "count", "lower",
           "raw spans beyond the in-memory cap (edge totals stay exact)"),
    # executor transport diagnostics (suite_cli --trace), never gated
    Metric("bench.executor.pool_warm_s", "s", "lower",
           "executor.warm_pool(2) on a cold process"),
    Metric("bench.executor.jobs2_wall_s", "s", "lower",
           "the suite_cli command once at --jobs 2"),
    Metric("bench.executor.jobs2_speedup", "ratio", "higher",
           "--jobs 1 wall / --jobs 2 wall, one sample each"),
)


def per_layer_metrics() -> tuple[Metric, ...]:
    """Every metric a ``--trace`` run reports, in catalogue order."""
    spans = []
    for name in SPAN_NAMES:
        spans.append(Metric(f"{name}.self_s", "s", "lower",
                            "span duration minus its child spans, summed"))
        spans.append(Metric(f"{name}.calls", "count", "lower",
                            "spans recorded under this name"))
    return (*spans, *COUNTS)


@dataclass(frozen=True)
class Interaction:
    layers: str
    should_move: str
    on: str
    no_change_on: str


#: Single-threaded and closed-loop, so a faster layer saves at most its
#: self-time share of the workload.
INTERACTIONS = (
    Interaction(
        "`core.read`, `core.serve`, `core.events`, `replacement`, "
        "`hardware.device.dram`, `hardware.cpu`, `bench.harness.op` `.self_s`",
        "`host_ops_per_s`", "`ycsb_ro_hit` (most of the wall)",
        "— (present everywhere; smallest on `serve_live`)"),
    Interaction(
        "`core.miss`, `core.evict`, `core.migration`, "
        "`hardware.device.ssd`/`.nvm`, `core.ssd_fetches`",
        "`host_ops_per_s`", "`ycsb_ro_miss`",
        "`ycsb_ro_hit` (`core.miss.calls` = 0)"),
    Interaction(
        "`wal.append`, `wal.commit`, `wal.checkpoint`, `core.write`, "
        "`core.flush`, `wal.bytes_per_write`",
        "`host_ops_per_s`", "`tpcc_wal` (ROADMAP: ~41 % WAL)",
        "`ycsb_ro_hit`, `ycsb_ro_miss` (`calls` = 0)"),
    Interaction(
        "`workloads.gen`", "`host_ops_per_s`",
        "`tpcc_wal` (~16 %), `ycsb_ro_hit` (~10 %)",
        "`serve_live` (schedule built in set-up)"),
    Interaction(
        "`workloads.popularity`, `core.prime`, "
        "`bench.phase.build_s`…`prime_s`",
        "`wall_s`, `setup_s`", "`suite_cli` (4 short cells), `tpcc_wal`",
        "`serve_live`"),
    Interaction(
        "`core.fine_grained`, `obs.hub`, `obs.export`, `bench.reporting`, "
        "`engine`, `wal.recovery`, `cli.main`",
        "`wall_s`", "`suite_cli`", "the three cells (`calls` = 0)"),
    Interaction(
        "`serve.protocol`, `serve.admission`, `serve.server`, `serve.slo`, "
        "`serve.ping_rtt_us`, `serve.req_p50_us`, `serve.req_p95_us`",
        "`host_ops_per_s`", "`serve_live`", "all others (`calls` = 0)"),
    Interaction(
        "simulated counts (`core.*` ratios, `hardware.*_sim_ms`, "
        "`wal.bytes_*`, `bench.sim_ops_per_s`)",
        "nothing a user waits for", "the three cells",
        "must not move at all under a host-time-only change"),
)
