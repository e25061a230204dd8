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
are read off the same run, :meth:`RunResult.throughput_at`).
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass

from ..core.buffer_manager import BufferManager
from ..core.stats import BufferStats
from ..hardware import simclock
from ..hardware.simclock import CostAccumulator, checked_fp
from ..hardware.specs import Tier
from ..obs.decisions import DecisionRecorder
from ..obs.hub import MetricsHub
from ..wal.checkpoint import Checkpointer
from ..wal.log_manager import LogManager
from ..wal.records import LogRecordType
from ..obs.metrics import MetricsRegistry
from ..workloads.tenancy import MultiTenantWorkload
from ..workloads.tpcc import PageAccess, TpccWorkload
from ..workloads.ycsb import (
    COLUMN_SIZE,
    TUPLE_SIZE,
    TUPLES_PER_PAGE,
    OpKind,
    YcsbWorkload,
)

#: Placeholder images used when charging log-record sizes; the content
#: is irrelevant to the cost model, only the length matters.
_UPDATE_BEFORE = bytes(COLUMN_SIZE)
_UPDATE_AFTER = bytes(COLUMN_SIZE)

#: Operations between inclusivity samples of the measurement window.
INCLUSIVITY_SAMPLE_EVERY = 2_000
#: Most operations one ``run(count)`` call of a measurement executes:
#: a YCSB chunk is one generated batch through the columnar batch path,
#: so a window spans a few dozen chunks.
CHUNK_OPS = 1024


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
    #: Fraction of pages whose migration/admission/eviction decisions a
    #: :class:`~repro.obs.decisions.DecisionRecorder` records as full
    #: spans (0 = off; decision *counters* are complete whenever on).
    trace_decisions: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.trace_decisions <= 1.0:
            raise ValueError("trace_decisions must be in [0, 1]")


@dataclass
class RunConfig:
    """Measurement protocol parameters.

    The protocol itself has one setting each (§6.1): buffers are primed
    with the workload's hottest pages, updates charge the WAL, and the
    window samples inclusivity every :data:`INCLUSIVITY_SAMPLE_EVERY`
    operations.
    """

    warmup_ops: int = 20_000
    measure_ops: int = 30_000
    #: Write operations between checkpoint flushes; None disables them.
    checkpoint_interval_ops: int | None = 2_000
    #: What the run attaches: metrics hub and decision tracing.
    options: RunOptions = RunOptions()


@dataclass
class RunResult:
    """Everything a single measured run produces."""

    label: str
    operations: int
    #: ops per simulated second at one worker; another worker count is
    #: :meth:`throughput_at`.
    throughput: float
    stats: BufferStats
    inclusivity: float
    nvm_write_gb: float
    makespan_ns: float
    #: MetricsHub snapshot — registry state plus epoch gauge series
    #: (only when ``RunOptions.collect_metrics``).
    metrics: dict | None = None
    #: Per-resource :class:`~repro.hardware.simclock.ResourceUsage` of
    #: the measurement window (busy_ns / operations / bytes_moved per
    #: device channel plus CPU) — the saturation model's inputs.
    resource_usage: dict[str, dict] | None = None
    #: Per-tenant op counts and latency quantiles, keyed by tenant id
    #: (only for :meth:`WorkloadRunner.measure_tenants`).
    tenant_breakdown: dict[int, dict] | None = None
    #: Sampled decision spans plus a per-policy digest (only when
    #: ``RunOptions.trace_decisions`` > 0).
    decision_trace: dict | None = None
    #: Runs of top-tier read hits the batch path executed vectorised
    #: over the measurement window (0 for TPC-C and tenant streams, and
    #: whenever an observer or device forces the per-op fallback) — a
    #: count of host work, not a simulated number.
    batch_runs: int = 0

    def throughput_at(self, workers: int) -> float:
        """Throughput of this window's work spread over ``workers``.

        The same run at another worker count: the one makespan rule,
        :func:`~repro.hardware.simclock.makespan_from_fp`, over the
        window's usage in the fixed-point units it was charged in (each
        ``busy_ns`` views them exactly below 2**53 units, ≈ 8.6
        simulated seconds per resource), so it equals
        ``hierarchy.cost.throughput(operations, workers)`` at the window's
        end.
        """
        busy_fp = {key: simclock.to_fp(usage["busy_ns"])
                   for key, usage in (self.resource_usage or {}).items()}
        return simclock.ops_per_sim_second(
            self.operations, simclock.makespan_from_fp(busy_fp, workers))


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
        self.log = LogManager(self.hierarchy)
        self.checkpointer: Checkpointer | None = None
        if self.config.checkpoint_interval_ops:
            self.checkpointer = Checkpointer(
                self.bm, self.log, self.config.checkpoint_interval_ops)

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
        self.hierarchy.cost.charge_fp(CostAccumulator.CPU, self._logging_fp)
        # One UPDATE (txn 1, no slot, no prev LSN) and its COMMIT.
        log.append(LogRecordType.UPDATE, 1, page_id, -1, -1,
                   _UPDATE_BEFORE, _UPDATE_AFTER)
        log.commit(1)
        if self.checkpointer is not None:
            self.checkpointer.note_operation(True)

    def _exec_op(self, page_id: int, offset: int, nbytes: int,
                 is_write: bool) -> bool:
        """The single accounting path every op variant funnels through.

        Reads serve ``nbytes``; writes additionally charge the WAL
        append/commit and tick the checkpointer.  The YCSB, TPC-C,
        trace, and multi-tenant steps all route here, so tenant streams
        cannot drift from the single-stream accounting.  Returns True
        when the op was a write.
        """
        if is_write:
            self.bm.write(page_id, offset, nbytes)
            self._charge_update_wal(page_id)
            return True
        self.bm.read(page_id, offset, nbytes)
        return False

    def run_ycsb_op(self, workload: YcsbWorkload) -> bool:
        """Execute one YCSB operation; returns True when it was a write.

        The per-op reference: every production run (measurements and
        Fig. 10's tuning epochs) goes through :meth:`run_ycsb_batch`,
        which the tests hold to a loop of this op for op.
        """
        kind, key, column = workload.next_op()
        is_write = kind is OpKind.UPDATE
        # YcsbWorkload.page_of / offset_of / access_bytes, spelled out.
        offset = (key % TUPLES_PER_PAGE) * TUPLE_SIZE + 4 + column * COLUMN_SIZE
        return self._exec_op(key // TUPLES_PER_PAGE, offset,
                             COLUMN_SIZE if is_write else TUPLE_SIZE, is_write)

    def run_access(self, access: PageAccess) -> bool:
        """Execute one pre-generated page access (TPC-C / traces /
        tenant streams).

        TPC-C's insert regions grow during the run, so unseen pages are
        allocated on first touch.
        """
        if not self.bm.page_exists(access.page_id):
            self.bm.allocate_page(access.page_id)
        return self._exec_op(access.page_id, access.offset, access.nbytes,
                             access.is_write)

    def run_ycsb_batch(self, workload: YcsbWorkload, count: int) -> None:
        """Execute ``count`` YCSB operations through the batch path.

        The reads between two writes execute as one columnar run (a
        read-only chunk is one ``read_batch``); each write (and its
        WAL/checkpoint tail) runs at its original position, so the
        operation schedule — and therefore every charge, event, and RNG
        draw — matches ``count`` calls of :meth:`run_ycsb_op` exactly.
        """
        batch = workload.next_ops(count)
        page_ids = batch.page_ids
        offsets = batch.offsets
        read_batch = self.bm.read_batch
        start = 0
        for write in batch.writes:
            if write > start:
                read_batch(page_ids[start:write], offsets[start:write],
                           TUPLE_SIZE)
            self._exec_op(page_ids[write], offsets[write], COLUMN_SIZE, True)
            start = write + 1
        if start < count:
            read_batch(page_ids[start:], offsets[start:], TUPLE_SIZE)

    # ------------------------------------------------------------------
    # Full measurement protocol
    # ------------------------------------------------------------------
    def measure_ycsb(self, workload: YcsbWorkload,
                     label: str | None = None) -> RunResult:
        self.allocate_database(workload.num_pages)
        self._prime(workload.page_popularity())
        return self._measure(
            lambda count: self.run_ycsb_batch(workload, count),
            label=label or workload.mix.name,
        )

    def measure_tpcc(self, workload: TpccWorkload,
                     label: str = "TPC-C") -> RunResult:
        self.allocate_database(workload.num_pages)
        self._prime(workload.page_popularity())
        stream = self._tpcc_stream(workload)

        def run(count: int) -> None:
            for access in itertools.islice(stream, count):
                self.run_access(access)

        return self._measure(run, label=label)

    def measure_tenants(self, workload: MultiTenantWorkload,
                        label: str = "tenants") -> RunResult:
        """Measure the interleaved multi-tenant stream.

        Same protocol as the single-stream entry points — allocate,
        prime (merged popularity ranking), warm up, measure — with
        tenant-labelled series projected (each op's tenant owns its
        page) so the result carries a per-tenant breakdown.

        A tenant's ``think_time_ns`` is charged as CPU service after each
        of its ops, inside that op's latency bracket — the simulation has
        no idle waiting, so think time models a slower arrival rate, not
        a sleeping client.
        """
        self.bm.allocate_pages(workload.initial_page_ids())
        self._prime(workload.page_popularity())
        think = tuple(spec.think_time_ns for spec in workload.specs)
        charge_cpu = self.hierarchy.charge_cpu

        def run(count: int) -> None:
            for _ in range(count):
                access = workload.next_access()
                self.run_access(access)
                think_ns = think[access.tenant_id]
                if think_ns:
                    charge_cpu(think_ns)

        return self._measure(run, label=label)

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
            or bool(self.bm.admission_queues)
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
        fills, in attach order.  A manager with tenants needs the hub
        for its breakdown, metrics collected or not."""
        options = self.config.options
        observers: dict[str, object] = {}
        hub = None
        if options.collect_metrics or self.bm.tenancy is not None:
            hub = observers["metrics"] = MetricsHub()
        if options.trace_decisions > 0:
            decisions = observers["decision_trace"] = DecisionRecorder(
                options.trace_decisions)
            if hub is not None:
                # Merged once into the hub registry at finalize, the
                # same one-shot contract as the fault-source merge.
                hub.decision_source = decisions
        return observers

    def _run_phase(self, run, total: int, sample: bool = False) -> None:
        """Run ``total`` operations as ``run(count)`` chunks.

        A chunk holds at most :data:`CHUNK_OPS` operations and never
        straddles a multiple of :data:`INCLUSIVITY_SAMPLE_EVERY`, so
        (with ``sample``) inclusivity samples land after the same
        operation indexes however the operations are chunked.
        """
        done = 0
        while done < total:
            chunk = min(CHUNK_OPS, total - done,
                        INCLUSIVITY_SAMPLE_EVERY
                        - done % INCLUSIVITY_SAMPLE_EVERY)
            run(chunk)
            done += chunk
            if sample and done % INCLUSIVITY_SAMPLE_EVERY == 0:
                self.bm.sample_inclusivity()

    def _measure(self, run, label: str) -> RunResult:
        """Warm up, then measure, the workload ``run(count)`` executes
        ``count`` operations of."""
        config = self.config
        self._run_phase(run, config.warmup_ops)
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
            self._run_phase(run, config.measure_ops, sample=True)
            if self.bm.inclusivity.num_samples == 0:
                self.bm.sample_inclusivity()
        hub = observers.get("metrics")
        decisions = observers.get("decision_trace")
        operations = config.measure_ops
        makespan = self.hierarchy.cost.makespan_ns()
        metrics_snapshot = hub.snapshot() if hub is not None else None
        return RunResult(
            label=label,
            operations=operations,
            throughput=simclock.ops_per_sim_second(operations, makespan),
            stats=self.bm.stats.snapshot(),
            inclusivity=self.bm.inclusivity.mean_ratio(),
            nvm_write_gb=self.bm.nvm_write_volume_gb(),
            makespan_ns=makespan,
            metrics=(metrics_snapshot if config.options.collect_metrics
                     else None),
            resource_usage={
                key: usage.as_dict()
                for key, usage in self.hierarchy.cost.snapshot().items()
            },
            tenant_breakdown=(
                tenant_breakdown(metrics_snapshot)
                if self.bm.tenancy is not None else None
            ),
            decision_trace=(
                decisions.report() if decisions is not None else None
            ),
            batch_runs=self.bm.batch_path.fast_runs - fast_runs_before,
        )
