"""Workload runner: warm-up, measurement, and simulated throughput.

Every experiment in the paper follows the same protocol (§6.1): build a
storage hierarchy, warm the buffer pools by running the workload, then
measure throughput over a measurement window.  :class:`WorkloadRunner`
implements that protocol for both YCSB and TPC-C against any
:class:`~repro.core.buffer_manager.BufferManager`, charging WAL and
checkpoint traffic for update operations.

Throughput is *simulated* operations per second: the cost accumulator's
makespan analysis converts accumulated device/CPU demands into time for
a configured worker count (1 and 16 in most of the paper's plots — both
can be derived from the same run).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.buffer_manager import BufferManager
from ..core.stats import BufferStats
from ..hardware.simclock import CostAccumulator, checked_fp
from ..hardware.specs import Tier
from ..obs.decisions import DecisionRecorder
from ..obs.hub import DEFAULT_EPOCH_NS, MetricsHub
from ..obs.tracer import PageLifecycleTracer
from ..wal.checkpoint import Checkpointer
from ..wal.log_manager import LogManager
from ..wal.records import LogRecordType
from ..obs.metrics import MetricsRegistry
from ..workloads.tenancy import MultiTenantWorkload, TenantAccess
from ..workloads.tpcc import PageAccess, TpccWorkload
from ..workloads.ycsb import (
    COLUMN_SIZE,
    TUPLE_SIZE,
    TUPLES_PER_PAGE,
    OpKind,
    YcsbWorkload,
)

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan
    from .telemetry import TelemetryChannel

#: Placeholder images used when charging log-record sizes; the content
#: is irrelevant to the cost model, only the length matters.
_UPDATE_BEFORE = bytes(COLUMN_SIZE)
_UPDATE_AFTER = bytes(COLUMN_SIZE)


@dataclass(frozen=True)
class RunOptions:
    """What a run may attach to a cell, beyond the measurement protocol.

    One frozen, picklable value: the executor keeps the current one in a
    context variable (:func:`~repro.bench.executor.run_options` scopes
    an override), ships it to pool workers with every chunk, and hands
    it to the harness as :attr:`RunConfig.options`.  Every attachment
    is side-effect-free on the simulation by contract — figure JSON is
    byte-identical under any combination of them.
    """

    #: Attach a :class:`~repro.obs.hub.MetricsHub` over the measurement
    #: window; the run result then carries a metrics snapshot.
    collect_metrics: bool = False
    #: Operations per batch through the columnar
    #: :class:`~repro.core.batch_path.BatchAccessPath`, byte-identical
    #: to the per-op loop by construction; ``1`` runs that loop.
    batch_size: int = 1
    #: A :class:`~repro.faults.plan.FaultPlan` whose device wrappers
    #: :func:`~repro.bench.executor.run_cell` installs before building
    #: the buffer manager (pure delegation for a no-op plan), or None.
    fault_plan: FaultPlan | None = None
    #: Build single-stream cells with ``TenancyConfig.single()`` and
    #: project tenant-labelled series (a hub attaches even without
    #: ``collect_metrics``); the result carries a per-tenant breakdown.
    track_tenants: bool = False
    #: A :class:`~repro.bench.telemetry.TelemetryChannel` streaming cell
    #: and chaos-case progress out-of-band, or None.  Manager-backed
    #: channels pickle; the in-process fallback is a no-op in workers.
    telemetry: TelemetryChannel | None = None
    #: Fraction of pages whose migration/admission/eviction decisions a
    #: :class:`~repro.obs.decisions.DecisionRecorder` records as full
    #: spans (0 = off; decision *counters* are complete whenever on).
    trace_decisions: float = 0.0
    #: Fraction of pages whose lifecycle a
    #: :class:`~repro.obs.tracer.PageLifecycleTracer` records (0 = off).
    trace_pages: float = 0.0

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.trace_decisions <= 1.0:
            raise ValueError("trace_decisions must be in [0, 1]")
        if not 0.0 <= self.trace_pages <= 1.0:
            raise ValueError("trace_pages must be in [0, 1]")


@dataclass
class RunConfig:
    """Measurement protocol parameters."""

    warmup_ops: int = 20_000
    measure_ops: int = 30_000
    workers: int = 1
    #: Warm-start the buffers with the workload's hottest pages before
    #: the warm-up phase, approximating the paper's fill-until-full
    #: warm-up without its multi-minute runtime.
    prime_buffers: bool = True
    #: Charge WAL traffic for updates (disable for pure-BM microbenches).
    with_wal: bool = True
    #: Write operations between checkpoint flushes; None disables them.
    checkpoint_interval_ops: int | None = 2_000
    #: Operations between inclusivity samples.
    inclusivity_sample_every: int = 2_000
    #: Sim-time between the hub's occupancy/dirty-ratio gauge samples.
    metrics_epoch_ns: float = DEFAULT_EPOCH_NS
    #: What the run attaches: metrics hub, batch path, tenant tagging,
    #: page and decision tracing (``fault_plan`` and
    #: ``telemetry`` are consumed by the executor, which owns device
    #: construction and cell labels).
    options: RunOptions = RunOptions()
    #: Optional live-progress hook ``progress(phase, done, total)``,
    #: called every ``progress_every_ops`` operations during warm-up and
    #: measurement (phases ``"warmup"`` / ``"measure"``).  Strictly
    #: out-of-band: the hook sees wall-clock progress only and must
    #: never touch the measured system.
    progress: object | None = None
    #: Operations between progress calls (per-op loops; batched loops
    #: report once per chunk, which is coarser).
    progress_every_ops: int = 2_000


@dataclass
class RunResult:
    """Everything a single measured run produces."""

    label: str
    operations: int
    #: ops per simulated second at the configured worker count.
    throughput: float
    workers: int
    stats: BufferStats
    inclusivity: float
    nvm_write_gb: float
    makespan_ns: float
    #: Throughput recomputed for other worker counts from the same run.
    throughput_by_workers: dict[int, float] = field(default_factory=dict)
    #: MetricsHub snapshot — registry state plus epoch gauge series
    #: (only when ``RunOptions.collect_metrics``).
    metrics: dict | None = None
    #: Page-lifecycle spans keyed by page id (only when
    #: ``RunOptions.trace_pages`` > 0).
    page_traces: dict | None = None
    #: Per-resource :class:`~repro.hardware.simclock.ResourceUsage` of
    #: the measurement window (busy_ns / operations / bytes_moved per
    #: device channel plus CPU) — the saturation model's inputs.
    resource_usage: dict[str, dict] | None = None
    #: Per-tenant op counts and latency quantiles, keyed by tenant id
    #: (only when ``RunOptions.track_tenants``).
    tenant_breakdown: dict[int, dict] | None = None
    #: Sampled decision spans plus a per-policy digest (only when
    #: ``RunOptions.trace_decisions`` > 0).
    decision_trace: dict | None = None
    #: Runs of top-tier read hits the batch path executed vectorised
    #: over the measurement window (0 on the per-op loop, and whenever
    #: an observer or device forces the per-op fallback) — the one
    #: field batching may change.
    batch_runs: int = 0

    @property
    def throughput_kops(self) -> float:
        return self.throughput / 1e3


def tenant_breakdown(metrics: dict | None) -> dict[int, dict] | None:
    """Per-tenant breakdown derived from a MetricsHub snapshot.

    A pure function of the snapshot dict (the hub itself is detached by
    the time results are assembled): per tenant, read/write op counts
    and p50/p99/mean simulated op latency over the merged read+write
    histograms.  Returns None when the snapshot has no tenant series.
    """
    if not metrics:
        return None
    merged: dict[int, dict] = {}
    # One histogram per tenant: its read and write series merge into it.
    latency = MetricsRegistry()
    for key, entry in metrics.get("registry", {}).items():
        labels = entry.get("labels", {})
        if "tenant" not in labels:
            continue
        tenant = int(labels["tenant"])
        record = merged.setdefault(tenant, {"reads": 0, "writes": 0})
        name = entry.get("name")
        if name == "tenant_ops_total":
            kind = labels.get("kind", "read")
            record["writes" if kind == "write" else "reads"] += \
                int(entry["state"])
        elif name == "tenant_op_latency_ns":
            latency.merge_snapshot(
                {key: {**entry, "labels": {"tenant": str(tenant)}}})
    if not merged:
        return None
    breakdown: dict[int, dict] = {}
    for tenant in sorted(merged):
        record = merged[tenant]
        hist = latency.histogram("tenant_op_latency_ns",
                                 {"tenant": str(tenant)})
        observed = hist.count
        record["latency_sum_ns"] = hist.sum
        record["ops"] = record["reads"] + record["writes"]
        record["p50_ns"] = hist.quantile(0.50)
        record["p99_ns"] = hist.quantile(0.99)
        record["mean_ns"] = hist.sum / observed if observed else 0.0
        breakdown[tenant] = record
    return breakdown


class WorkloadRunner:
    """Drives one buffer manager with one workload."""

    def __init__(self, bm: BufferManager, config: RunConfig | None = None) -> None:
        self.bm = bm
        self.config = config or RunConfig()
        self.hierarchy = bm.hierarchy
        #: The per-update logging CPU cost, quantised once.
        self._logging_fp = checked_fp(self.hierarchy.cpu_costs.logging_ns)
        self.log: LogManager | None = None
        self.checkpointer: Checkpointer | None = None
        if self.config.with_wal:
            self.log = LogManager(self.hierarchy)
            if self.config.checkpoint_interval_ops:
                self.checkpointer = Checkpointer(
                    self.bm, self.log, self.config.checkpoint_interval_ops,
                    truncate_log=True,
                )

    # ------------------------------------------------------------------
    # Database setup
    # ------------------------------------------------------------------
    def allocate_database(self, num_pages: int) -> None:
        """Create the SSD-resident database pages in one bulk call."""
        self.bm.allocate_pages(range(num_pages))

    # ------------------------------------------------------------------
    # Operation execution
    # ------------------------------------------------------------------
    def _charge_update_wal(self, page_id: int) -> None:
        log = self.log
        if log is not None:
            self.hierarchy.cost.charge_fp(CostAccumulator.CPU,
                                          self._logging_fp)
            # One UPDATE (txn 1, no slot, no prev LSN) and its COMMIT.
            log.append(LogRecordType.UPDATE, 1, page_id, -1, -1,
                       _UPDATE_BEFORE, _UPDATE_AFTER)
            log.commit(1)
        if self.checkpointer is not None:
            self.checkpointer.note_operation(True)

    def _exec_op(self, page_id: int, offset: int, nbytes: int,
                 is_write: bool, tenant_id: int = 0) -> bool:
        """The single accounting path every op variant funnels through.

        Reads serve ``nbytes``; writes additionally charge the WAL
        append/commit and tick the checkpointer.  The YCSB, TPC-C,
        trace, and multi-tenant steps all route here, so tenant-tagged
        runs cannot drift from the single-stream accounting.  Returns
        True when the op was a write.
        """
        if is_write:
            self.bm.write(page_id, offset, nbytes, tenant_id=tenant_id)
            self._charge_update_wal(page_id)
            return True
        self.bm.read(page_id, offset, nbytes, tenant_id=tenant_id)
        return False

    def run_ycsb_op(self, workload: YcsbWorkload) -> bool:
        """Execute one YCSB operation; returns True when it was a write."""
        kind, key, column = workload.next_op()
        is_write = kind is OpKind.UPDATE
        # YcsbWorkload.page_of / offset_of / access_bytes, spelled out.
        offset = (key % TUPLES_PER_PAGE) * TUPLE_SIZE + 4 + column * COLUMN_SIZE
        return self._exec_op(key // TUPLES_PER_PAGE, offset,
                             COLUMN_SIZE if is_write else TUPLE_SIZE, is_write)

    def run_access(self, access: PageAccess) -> bool:
        """Execute one pre-generated page access (TPC-C / traces).

        TPC-C's insert regions grow during the run, so unseen pages are
        allocated on first touch.  Tenant-tagged accesses
        (:class:`~repro.workloads.tenancy.TenantAccess`) carry their
        tenant through to the buffer manager; plain accesses run as
        tenant 0.
        """
        if not self.bm.page_exists(access.page_id):
            self.bm.allocate_page(access.page_id)
        return self._exec_op(access.page_id, access.offset, access.nbytes,
                             access.is_write,
                             tenant_id=getattr(access, "tenant_id", 0))

    def run_tenant_access(self, access: TenantAccess,
                          think_time_ns: float = 0.0) -> bool:
        """Execute one access of the interleaved multi-tenant stream.

        ``think_time_ns`` (from the tenant's spec) is charged as CPU
        service ahead of the op — the simulation has no idle waiting, so
        think time models a slower arrival rate, not a sleeping client.
        """
        if think_time_ns:
            self.hierarchy.charge_cpu(think_time_ns)
        return self.run_access(access)

    # ------------------------------------------------------------------
    # Batched operation execution (RunOptions.batch_size > 1)
    # ------------------------------------------------------------------
    def run_ycsb_batch(self, workload: YcsbWorkload, count: int) -> int:
        """Execute ``count`` YCSB operations through the batch path.

        Reads between writes execute as columnar runs; each write (and
        its WAL/checkpoint tail) runs at its original position, so the
        operation schedule — and therefore every charge, event, and RNG
        draw — matches ``count`` calls of :meth:`run_ycsb_op` exactly.
        Returns the number of writes executed.
        """
        batch = workload.next_ops(count)
        page_ids = batch.page_ids
        offsets = batch.offsets
        is_writes = batch.is_writes
        if hasattr(page_ids, "tolist"):
            page_ids = page_ids.tolist()
            offsets = offsets.tolist()
            is_writes = is_writes.tolist()
        read_batch = self.bm.batch_path.read_batch
        writes = 0
        i = 0
        while i < count:
            if is_writes[i]:
                self._exec_op(page_ids[i], offsets[i], COLUMN_SIZE, True)
                writes += 1
                i += 1
                continue
            j = i + 1
            while j < count and not is_writes[j]:
                j += 1
            read_batch(page_ids[i:j], offsets[i:j], TUPLE_SIZE)
            i = j
        return writes

    def run_access_batch(self, accesses) -> int:
        """Execute a row-ordered sequence of page accesses batched.

        Contiguous reads of one size over existing pages form columnar
        runs; writes and first-touch allocations run per-op in place.
        Returns the number of writes executed.
        """
        read_batch = self.bm.batch_path.read_batch
        page_exists = self.bm.page_exists
        writes = 0
        n = len(accesses)
        i = 0
        while i < n:
            access = accesses[i]
            if access.is_write or not page_exists(access.page_id):
                if self.run_access(access):
                    writes += 1
                i += 1
                continue
            size = access.nbytes
            j = i + 1
            while (
                j < n
                and not accesses[j].is_write
                and accesses[j].nbytes == size
                and page_exists(accesses[j].page_id)
            ):
                j += 1
            run = accesses[i:j]
            read_batch([a.page_id for a in run], [a.offset for a in run], size)
            i = j
        return writes

    def run_tenant_batch(self, accesses, think_ns: tuple) -> int:
        """Execute a slice of the interleaved tenant stream batched.

        Like :meth:`run_access_batch`, but columnar runs additionally
        break on tenant change (a batch summary never spans tenants) and
        ops of tenants with think time stay on the per-op path — their
        per-op CPU charge must interleave with the accesses exactly as
        the unbatched loop charges it.  Returns the number of writes.
        """
        read_batch = self.bm.batch_path.read_batch
        page_exists = self.bm.page_exists
        writes = 0
        n = len(accesses)
        i = 0
        while i < n:
            access = accesses[i]
            tenant = access.tenant_id
            if access.is_write or think_ns[tenant] \
                    or not page_exists(access.page_id):
                if self.run_tenant_access(access, think_ns[tenant]):
                    writes += 1
                i += 1
                continue
            size = access.nbytes
            j = i + 1
            while (
                j < n
                and not accesses[j].is_write
                and accesses[j].nbytes == size
                and accesses[j].tenant_id == tenant
                and page_exists(accesses[j].page_id)
            ):
                j += 1
            run = accesses[i:j]
            read_batch([a.page_id for a in run], [a.offset for a in run],
                       size, tenant)
            i = j
        return writes

    # ------------------------------------------------------------------
    # Full measurement protocol
    # ------------------------------------------------------------------
    def measure_ycsb(self, workload: YcsbWorkload, label: str | None = None,
                     extra_worker_counts: tuple[int, ...] = ()) -> RunResult:
        self.allocate_database(workload.num_pages)
        if self.config.prime_buffers:
            self._prime(workload.page_popularity())
        return self._measure(
            step=lambda: self.run_ycsb_op(workload),
            label=label or workload.mix.name,
            extra_worker_counts=extra_worker_counts,
            batch_step=lambda count: self.run_ycsb_batch(workload, count),
        )

    def measure_tpcc(self, workload: TpccWorkload, label: str = "TPC-C",
                     extra_worker_counts: tuple[int, ...] = ()) -> RunResult:
        self.allocate_database(workload.num_pages)
        if self.config.prime_buffers:
            self._prime(workload.page_popularity())
        stream = self._tpcc_stream(workload)
        return self._measure(
            step=lambda: self.run_access(next(stream)),
            label=label,
            extra_worker_counts=extra_worker_counts,
            batch_step=lambda count: self.run_access_batch(
                [next(stream) for _ in range(count)]
            ),
        )

    def measure_tenants(self, workload: MultiTenantWorkload,
                        label: str = "tenants",
                        extra_worker_counts: tuple[int, ...] = ()) -> RunResult:
        """Measure the interleaved multi-tenant stream.

        Same protocol as the single-stream entry points — allocate,
        prime (merged popularity ranking), warm up, measure — with each
        op tagged by its tenant.  Combine with
        ``RunOptions.track_tenants`` to get per-tenant breakdowns on the
        result.
        """
        self.bm.allocate_pages(workload.initial_page_ids())
        if self.config.prime_buffers:
            self._prime(workload.page_popularity())
        think = tuple(spec.think_time_ns for spec in workload.specs)

        def step() -> bool:
            access = workload.next_access()
            return self.run_tenant_access(access, think[access.tenant_id])

        return self._measure(
            step=step,
            label=label,
            extra_worker_counts=extra_worker_counts,
            batch_step=lambda count: self.run_tenant_batch(
                [workload.next_access() for _ in range(count)], think
            ),
        )

    def _prime(self, ranked_pages: list[int]) -> None:
        """Warm-start: hottest pages into DRAM, the next tier of heat
        into NVM — but only on tiers the policy can actually populate."""
        policy = self.bm.policy
        cursor = 0
        dram_reachable = (
            self.bm.has_dram and (policy.d_r > 0 or policy.d_w > 0
                                  or not self.bm.has_nvm)
        )
        nvm_reachable = self.bm.has_nvm and (
            policy.n_r > 0 or policy.n_w > 0
            or self.bm.admission_queue is not None
        )
        if dram_reachable:
            while cursor < len(ranked_pages):
                if not self.bm.prime_page(Tier.DRAM, ranked_pages[cursor]):
                    break
                cursor += 1
        if nvm_reachable:
            while cursor < len(ranked_pages):
                if not self.bm.prime_page(Tier.NVM, ranked_pages[cursor]):
                    break
                cursor += 1

    @staticmethod
    def _tpcc_stream(workload: TpccWorkload):
        while True:
            yield from workload.next_transaction()

    def _window_observers(self) -> dict[str, object]:
        """The measurement window's bus observers, built from
        ``RunOptions`` and keyed by the ``RunResult`` field each one
        fills, in attach order."""
        options = self.config.options
        observers: dict[str, object] = {}
        hub = None
        if options.collect_metrics or options.track_tenants:
            hub = observers["metrics"] = MetricsHub(
                epoch_ns=self.config.metrics_epoch_ns,
                track_tenants=options.track_tenants)
        if options.trace_pages > 0:
            observers["page_traces"] = PageLifecycleTracer(options.trace_pages)
        if options.trace_decisions > 0:
            decisions = observers["decision_trace"] = DecisionRecorder(
                options.trace_decisions)
            if hub is not None:
                # Merged once into the hub registry at finalize, the
                # same one-shot contract as the fault-source merge.
                hub.decision_source = decisions
        return observers

    def _measure(self, step, label: str,
                 extra_worker_counts: tuple[int, ...],
                 batch_step=None) -> RunResult:
        config = self.config
        options = config.options
        batch_size = options.batch_size
        use_batch = batch_step is not None and batch_size > 1
        progress = config.progress
        progress_every = max(1, config.progress_every_ops)
        if use_batch:
            remaining = config.warmup_ops
            warmed = 0
            while remaining > 0:
                chunk = min(batch_size, remaining)
                batch_step(chunk)
                remaining -= chunk
                warmed += chunk
                if progress is not None:
                    progress("warmup", warmed, config.warmup_ops)
        else:
            for index in range(config.warmup_ops):
                step()
                if progress is not None \
                        and (index + 1) % progress_every == 0:
                    progress("warmup", index + 1, config.warmup_ops)
            if progress is not None and config.warmup_ops % progress_every:
                progress("warmup", config.warmup_ops, config.warmup_ops)
        # Warm-up traffic does not count toward the measurement (§6.1:
        # "we warm up the system until the buffer pool is full").
        self.hierarchy.reset_accounting()
        self.bm.reset_stats()
        fast_runs_before = self.bm.batch_path.fast_runs
        observers = self._window_observers()
        with contextlib.ExitStack() as stack:
            # Every observer is detached even when the workload, or an
            # earlier detach, raises: a leaked subscription would
            # double-count every later measurement on this bus.  Detach
            # is registered ahead of attach (it is a no-op on an observer
            # that never attached) and in reverse, so the stack unwinds
            # in attach order: the hub finalises before the decision
            # recorder it merges from lets go.
            for observer in reversed(observers.values()):
                stack.callback(observer.detach)
            for observer in observers.values():
                observer.attach(self.bm)

            sample_every = max(1, config.inclusivity_sample_every)
            if use_batch:
                # Chunks never straddle a sampling point, so inclusivity
                # samples land after the same operation indexes as the
                # per-op loop above.
                done = 0
                while done < config.measure_ops:
                    chunk = min(
                        batch_size,
                        config.measure_ops - done,
                        sample_every - (done % sample_every),
                    )
                    batch_step(chunk)
                    done += chunk
                    if done % sample_every == 0:
                        self.bm.sample_inclusivity()
                    if progress is not None:
                        progress("measure", done, config.measure_ops)
            else:
                for index in range(config.measure_ops):
                    step()
                    if (index + 1) % sample_every == 0:
                        self.bm.sample_inclusivity()
                    if progress is not None \
                            and (index + 1) % progress_every == 0:
                        progress("measure", index + 1, config.measure_ops)
                if progress is not None \
                        and config.measure_ops % progress_every:
                    progress("measure", config.measure_ops,
                             config.measure_ops)
            if self.bm.inclusivity.num_samples == 0:
                self.bm.sample_inclusivity()
        hub = observers.get("metrics")
        tracer = observers.get("page_traces")
        decisions = observers.get("decision_trace")
        operations = config.measure_ops
        makespan = self.hierarchy.cost.makespan_ns(config.workers)
        throughput = self.hierarchy.throughput(operations, config.workers)
        by_workers = {config.workers: throughput}
        for workers in extra_worker_counts:
            by_workers[workers] = self.hierarchy.throughput(operations, workers)
        metrics_snapshot = hub.snapshot() if hub is not None else None
        return RunResult(
            label=label,
            operations=operations,
            throughput=throughput,
            workers=config.workers,
            stats=self.bm.stats.snapshot(),
            inclusivity=self.bm.inclusivity.mean_ratio(),
            nvm_write_gb=self.bm.nvm_write_volume_gb(),
            makespan_ns=makespan,
            throughput_by_workers=by_workers,
            metrics=metrics_snapshot if options.collect_metrics else None,
            page_traces=tracer.snapshot() if tracer is not None else None,
            resource_usage={
                key: usage.as_dict()
                for key, usage in self.hierarchy.cost.snapshot().items()
            },
            tenant_breakdown=(
                tenant_breakdown(metrics_snapshot)
                if options.track_tenants else None
            ),
            decision_trace=(
                decisions.report() if decisions is not None else None
            ),
            batch_runs=self.bm.batch_path.fast_runs - fast_runs_before,
        )
