"""Parallel experiment executor: declarative cells over a persistent pool.

Every figure in the paper is a grid of independent measurements — one
buffer manager, one workload, one policy/shape/knob combination per
point.  This module turns each grid point into a picklable :class:`Cell`
spec and runs batches of them with :func:`run_cells`, either in-process
(``jobs=1``) or on a **session-scoped persistent worker pool**: one
:class:`concurrent.futures.ProcessPoolExecutor` created lazily per
process and reused by every :func:`run_cells` / :func:`run_tasks` call,
so pool startup and worker warm-up are paid once per process instead of
once per figure.

Design rules:

* a :class:`Cell` carries *specs*, never live objects: the worker builds
  its own hierarchy, buffer manager, and workload from scratch, so a
  parallel run draws exactly the same RNG streams as a serial run and
  the per-figure JSON output is byte-identical for any ``jobs`` value;
* results come back in submission order regardless of completion order;
* work is submitted as **contiguous chunks** sized from each cell's
  :class:`Effort` (longest-expected-first), which amortises pickling
  and IPC over many small tasks while keeping load balanced;
* what a run attaches to its cells — metrics hub, batch path, fault
  plan, tenant tagging, telemetry channel, the three tracers — is one
  :class:`~repro.bench.harness.RunOptions` value: :func:`run_options`
  scopes an override, :func:`run_cell` reads :func:`current_options`
  once, and every submission carries the submitter's value into the
  worker, which installs it around the chunk — a persistent pool
  outlives any scope, so nothing may rely on workers inheriting parent
  state;
* a failing cell raises :class:`CellExecutionError` naming the cell's
  full spec, and never hangs the pool (remaining chunks are cancelled);
* when worker processes cannot be spawned at all (restricted sandboxes,
  missing ``os.fork``) or die wholesale mid-batch, the batch
  transparently degrades to serial in-process execution with identical
  results.

This module is imported by ``bench.experiments.common`` and must never
import from ``bench.experiments`` (the package init pulls in every
figure module).
"""

from __future__ import annotations

import atexit
import contextlib
import contextvars
import multiprocessing
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

from ..core.buffer_manager import BufferManager, BufferManagerConfig
from ..core.policy import MigrationPolicy
from ..core.tenancy import QuotaMode, TenancyConfig
from ..hardware.cost_model import StorageHierarchy
from ..hardware.pricing import HierarchyShape
from ..hardware.specs import DEFAULT_SCALE, SimulationScale
from ..workloads.tenancy import MultiTenantWorkload, TenantSpec
from ..workloads.tpcc import TpccWorkload
from ..workloads.ycsb import MIXES, YcsbWorkload
from .harness import RunConfig, RunOptions, RunResult, WorkloadRunner

#: 16 KB pages of 1 KB tuples — the YCSB layout every figure uses.
TUPLES_PER_PAGE = 16


@dataclass(frozen=True)
class Effort:
    """Operation-count envelope for one experiment run."""

    warmup_ops: int
    measure_ops: int


QUICK = Effort(warmup_ops=8_000, measure_ops=15_000)
FULL = Effort(warmup_ops=30_000, measure_ops=60_000)


def effort(quick: bool) -> Effort:
    return QUICK if quick else FULL


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative workload description, resolved inside the worker.

    The YCSB mix is carried by *name* (a :data:`repro.workloads.ycsb.MIXES`
    key) so the spec stays a small value object.
    """

    kind: str  # "ycsb" | "tpcc"
    db_gb: float
    mix: str | None = None
    skew: float = 0.3
    seed: int = 3

    def __post_init__(self) -> None:
        if self.kind not in ("ycsb", "tpcc"):
            raise ValueError(f"unknown workload kind {self.kind!r}")
        if self.kind == "ycsb":
            if self.mix not in MIXES:
                raise ValueError(
                    f"unknown YCSB mix {self.mix!r}; expected one of "
                    f"{sorted(MIXES)}"
                )
        elif self.mix is not None:
            raise ValueError("TPC-C cells take no mix")


@dataclass(frozen=True)
class Cell:
    """One grid point: everything needed to reproduce one measurement.

    All fields are plain values or frozen dataclasses, so cells pickle
    cleanly into worker processes.  A cell says *what* is measured;
    what the run attaches to it (metrics, batching, faults, tenant
    tagging, telemetry, page/decision tracing) is the ambient
    :class:`~repro.bench.harness.RunOptions`, never a cell field.
    """

    label: str
    shape: HierarchyShape
    policy: MigrationPolicy
    workload: WorkloadSpec
    effort: Effort = QUICK
    scale: SimulationScale = DEFAULT_SCALE
    bm_config: BufferManagerConfig | None = None
    memory_mode: bool = False
    #: BM RNG seed, used only when ``bm_config`` is None.
    seed: int = 42
    workers: int = 1
    extra_worker_counts: tuple[int, ...] = (16,)
    with_wal: bool = True
    #: Tenant population for a multi-tenant cell.  Non-empty routes the
    #: cell through :meth:`WorkloadRunner.measure_tenants` over an
    #: interleaved :class:`~repro.workloads.tenancy.MultiTenantWorkload`
    #: (``workload.seed`` seeds the interleaver) with per-tenant
    #: tracking on; empty keeps the single-stream path.  TenantSpec is
    #: frozen, so cells stay picklable.
    tenants: tuple[TenantSpec, ...] = ()
    #: Quota mode for multi-tenant cells: "none", "hard", or "soft".
    quota_mode: str = "none"
    #: Per-tenant buffer-share fractions (empty = equal shares).
    shares: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.quota_mode not in ("none", "hard", "soft"):
            raise ValueError(
                f"unknown quota mode {self.quota_mode!r}; "
                "expected 'none', 'hard', or 'soft'"
            )
        if self.shares and len(self.shares) != len(self.tenants):
            raise ValueError("shares must have one entry per tenant")

    # ------------------------------------------------------------------
    @classmethod
    def ycsb(cls, label: str, shape: HierarchyShape, policy: MigrationPolicy,
             mix: str, db_gb: float, *, skew: float = 0.3,
             workload_seed: int = 3, **kwargs) -> "Cell":
        """A YCSB grid point."""
        spec = WorkloadSpec(kind="ycsb", db_gb=db_gb, mix=mix, skew=skew,
                            seed=workload_seed)
        return cls(label=label, shape=shape, policy=policy, workload=spec,
                   **kwargs)

    @classmethod
    def tpcc(cls, label: str, shape: HierarchyShape, policy: MigrationPolicy,
             db_gb: float, *, workload_seed: int = 3, **kwargs) -> "Cell":
        """A TPC-C grid point."""
        spec = WorkloadSpec(kind="tpcc", db_gb=db_gb, seed=workload_seed)
        return cls(label=label, shape=shape, policy=policy, workload=spec,
                   **kwargs)

    @classmethod
    def multi_tenant(cls, label: str, shape: HierarchyShape,
                     policy: MigrationPolicy, tenants, *,
                     quota_mode: str = "none",
                     shares: tuple[float, ...] = (),
                     interleave_seed: int = 3, **kwargs) -> "Cell":
        """A multi-tenant grid point over an interleaved tenant stream.

        ``tenants`` is a sequence of :class:`TenantSpec`;
        ``interleave_seed`` seeds the weighted stream interleaver (it
        rides in ``workload.seed``).  The ``workload`` field carries the
        lead tenant's profile purely for display — execution resolves
        the full tenant population, and results carry per-tenant
        breakdowns.
        """
        tenants = tuple(tenants)
        if not tenants:
            raise ValueError("multi-tenant cells need at least one TenantSpec")
        lead = tenants[0]
        spec = WorkloadSpec(
            kind=lead.kind, db_gb=lead.db_gigabytes,
            mix=lead.mix if lead.kind == "ycsb" else None,
            skew=lead.skew, seed=interleave_seed,
        )
        return cls(label=label, shape=shape, policy=policy, workload=spec,
                   tenants=tenants, quota_mode=quota_mode,
                   shares=tuple(shares), **kwargs)

    def describe(self) -> str:
        """One-line spec rendering for error messages and logs."""
        wl = self.workload
        if self.tenants:
            names = "+".join(spec.name for spec in self.tenants)
            workload = f"tenants[{names}] quota={self.quota_mode}"
        elif wl.kind == "ycsb":
            workload = f"{wl.mix} skew={wl.skew}"
        else:
            workload = "TPC-C"
        return (
            f"Cell({self.label!r}: shape={self.shape.label}, "
            f"policy={self.policy.name or self.policy}, {workload}, "
            f"db={wl.db_gb:g}GB, effort={self.effort.warmup_ops}+"
            f"{self.effort.measure_ops}, workers={self.workers}, "
            f"seed={self.seed}/{wl.seed})"
        )


class CellExecutionError(RuntimeError):
    """A cell's measurement raised; carries the failing cell's spec."""

    def __init__(self, cell: Cell, cause: BaseException) -> None:
        self.cell = cell
        self.cause = cause
        super().__init__(
            f"experiment cell failed: {cause!r}\n  spec: {cell.describe()}"
        )


# ----------------------------------------------------------------------
# Run options: one value, one scope, one transport
# ----------------------------------------------------------------------
# The current RunOptions lives in a context variable (so scopes are
# thread-safe for the CLI's suite session, where several figure drivers
# run concurrently).  A *persistent* pool forks once, so a scope entered
# after the pool exists cannot reach workers by inheritance: every
# submission carries the submitter's value and the worker installs it
# around the chunk it executes.

_options_var: contextvars.ContextVar[RunOptions] = contextvars.ContextVar(
    "repro_run_options", default=RunOptions())
_metrics_sink_var: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "repro_metrics_sink", default=None)


def current_options() -> RunOptions:
    """The :class:`RunOptions` in force for the calling thread."""
    return _options_var.get()


@contextlib.contextmanager
def run_options(base: RunOptions | None = None, **overrides):
    """Run every cell (and chaos case) in this scope under new options.

    Installs ``replace(base, **overrides)`` — ``base`` defaulting to
    the current value, so a nested scope wins for the fields it names
    and inherits the rest — and restores the previous value on exit.
    Invalid values are rejected by :class:`RunOptions` before anything
    is installed.
    """
    options = replace(_options_var.get() if base is None else base,
                      **overrides)
    token = _options_var.set(options)
    try:
        yield options
    finally:
        _options_var.reset(token)


@contextlib.contextmanager
def metrics_collection():
    """Collect a MetricsHub snapshot from every cell run in this scope.

    ``run_options(collect_metrics=True)`` plus the one piece of state a
    scope owns on the submitting side: yields the sink list, which
    after the scope holds one ``(cell label, RunResult)`` pair per
    executed cell in submission order regardless of the ``jobs`` value,
    so merging the snapshots in list order gives byte-identical exports
    at any parallelism.
    """
    sink: list[tuple[str, RunResult]] = []
    token = _metrics_sink_var.set(sink)
    try:
        with run_options(collect_metrics=True):
            yield sink
    finally:
        _metrics_sink_var.reset(token)


def _record_results(cells, results) -> None:
    """Append a finished batch to the metrics sink, in submission order."""
    sink = _metrics_sink_var.get()
    if sink is None:
        return
    for cell, result in zip(cells, results):
        if result.metrics is not None:
            sink.append((cell.label, result))


# ----------------------------------------------------------------------
# The persistent worker pool
# ----------------------------------------------------------------------
#: Chunks submitted per worker per batch — enough granularity for load
#: balancing without drowning the pool queue in single-item tasks.
CHUNKS_PER_WORKER = 4

_pool_lock = threading.Lock()
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_pool_start_method: str | None = None
_pool_generation = 0
#: Batches currently collecting results from the pool (guarded by
#: ``_pool_lock``); a pool with outstanding batches is never replaced.
_pool_busy = 0


def _warm_worker() -> None:
    """Pool initializer: pre-import the heavy modules workers will need.

    Under ``fork`` the parent's imports are inherited and this is free;
    under ``forkserver``/``spawn`` it front-loads the import cost into
    pool startup instead of the first measured cell.
    """
    from .. import engine, faults  # noqa: F401
    from ..core import batch_path, buffer_manager  # noqa: F401
    from ..faults import injector  # noqa: F401
    from . import harness  # noqa: F401


def _pool_context():
    """Pick the cheapest available start method: fork, then forkserver.

    ``fork`` gives pre-warmed workers for free (they inherit the
    parent's imported modules); ``forkserver`` isolates the fork from
    parent threads at the cost of re-importing (which the initializer
    front-loads); the platform default is the last resort.
    """
    methods = multiprocessing.get_all_start_methods()
    for method in ("fork", "forkserver"):
        if method in methods:
            return multiprocessing.get_context(method)
    return multiprocessing.get_context()


def _ensure_pool(jobs: int) -> ProcessPoolExecutor | None:
    """The shared pool with capacity for ``jobs``, or None if unavailable.

    The pool is created lazily on first parallel batch and reused by
    every later batch in the process.  A request for more workers than
    the pool has grows it (replace-when-idle: an in-flight batch keeps
    the current pool; growth happens on the next idle submission).
    Pools never shrink.
    """
    global _pool, _pool_workers, _pool_start_method, _pool_generation
    with _pool_lock:
        if _pool is not None:
            if _pool_workers >= jobs or _pool_busy > 0:
                return _pool
            _pool.shutdown(wait=True, cancel_futures=True)
            _pool = None
        try:
            context = _pool_context()
            pool = ProcessPoolExecutor(
                max_workers=max(jobs, _pool_workers),
                mp_context=context,
                initializer=_warm_worker,
            )
        except (OSError, ValueError, NotImplementedError):
            return None
        _pool = pool
        _pool_workers = max(jobs, _pool_workers)
        _pool_start_method = context.get_start_method()
        _pool_generation += 1
        return _pool


def _discard_pool() -> None:
    """Drop a broken pool so the next batch builds a fresh one."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=False, cancel_futures=True)
            _pool = None


def shutdown_pool() -> None:
    """Tear down the persistent pool (tests / interpreter exit)."""
    global _pool, _pool_workers, _pool_start_method
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=True, cancel_futures=True)
            _pool = None
        _pool_workers = 0
        _pool_start_method = None


atexit.register(shutdown_pool)


def pool_info() -> dict | None:
    """Diagnostics for the live pool (None before first parallel batch)."""
    with _pool_lock:
        if _pool is None:
            return None
        return {
            "workers": _pool_workers,
            "start_method": _pool_start_method,
            "generation": _pool_generation,
        }


def _ping() -> int:
    import os

    return os.getpid()


def warm_pool(jobs: int) -> bool:
    """Create the persistent pool and force all its workers to start.

    Submitting ``jobs`` no-op tasks makes the executor spawn its full
    worker complement up front, so the first measured batch runs on a
    warm pool.  Returns False when workers cannot be spawned at all.
    """
    if jobs <= 1:
        return False
    pool = _ensure_pool(jobs)
    if pool is None:
        return False
    try:
        futures = [pool.submit(_ping) for _ in range(jobs)]
        for future in futures:
            future.result()
    except BrokenProcessPool:
        _discard_pool()
        return False
    return True


# ----------------------------------------------------------------------
# The shared submission engine
# ----------------------------------------------------------------------
class _ItemFailure(Exception):
    """Internal: item ``index`` raised ``cause`` (first in order)."""

    def __init__(self, index: int, cause: BaseException) -> None:
        self.index = index
        self.cause = cause
        super().__init__(f"item {index} failed: {cause!r}")


class _ChunkSkipped(Exception):
    """Placeholder outcome for items after a failure in their chunk."""


def _as_picklable(exc: BaseException) -> BaseException:
    """Exceptions travel back as values; substitute when they can't."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _exec_chunk(runner, items: tuple, options: RunOptions) -> list:
    """Worker-side entry: run one contiguous chunk under ``options``.

    Returns one ``(ok, payload)`` pair per item.  After the first
    failure the rest of the chunk is skipped — the parent raises at the
    first failing index, so later outcomes would be discarded anyway.
    """
    out: list[tuple[bool, object]] = []
    with run_options(options):
        for position, item in enumerate(items):
            try:
                out.append((True, runner(item)))
            except Exception as exc:
                out.append((False, _as_picklable(exc)))
                out.extend(
                    (False, _ChunkSkipped())
                    for _ in range(len(items) - position - 1)
                )
                break
    return out


def _plan_chunks(weights: list[float], jobs: int) -> list[tuple[int, int]]:
    """Cut ``len(weights)`` items into contiguous ``[start, stop)`` spans.

    Few items (up to ``jobs * CHUNKS_PER_WORKER``) stay singleton spans;
    beyond that, spans are cut greedily so each carries roughly
    ``total_weight / (jobs * CHUNKS_PER_WORKER)`` expected work.  The
    returned list is in **submission order**: heaviest span first, so
    long-running work starts while lighter spans queue behind it and no
    straggler begins at the tail of the batch.
    """
    n = len(weights)
    max_chunks = max(1, jobs) * CHUNKS_PER_WORKER
    if n <= max_chunks:
        spans = [(i, i + 1) for i in range(n)]
    else:
        target = sum(weights) / max_chunks
        spans = []
        start = 0
        acc = 0.0
        for i, weight in enumerate(weights):
            acc += weight
            if acc >= target:
                spans.append((start, i + 1))
                start = i + 1
                acc = 0.0
        if start < n:
            spans.append((start, n))
    spans.sort(key=lambda span: -sum(weights[span[0]:span[1]]))
    return spans


def _execute_serial(items: list, runner) -> list:
    results = []
    for index, item in enumerate(items):
        try:
            results.append(runner(item))
        except Exception as exc:
            raise _ItemFailure(index, exc) from exc
    return results


def _note_session(**counts) -> None:
    session = _session
    if session is not None:
        session._note(**counts)


def _execute(items: list, runner, jobs: int, weigh) -> list:
    """Run ``runner`` over ``items``; results in submission order.

    The one submission engine behind :func:`run_cells` and
    :func:`run_tasks`: serial in-process for ``jobs<=1`` (or a single
    item), otherwise chunked over the persistent pool with the current
    :class:`RunOptions` attached to every chunk.  Pool-level failures
    (cannot spawn, workers died wholesale) degrade to a serial rerun —
    identical output, because items are self-contained and
    deterministic.  The first failing item (in submission order) raises
    :class:`_ItemFailure`; callers translate it.
    """
    n = len(items)
    if jobs <= 1 or n <= 1:
        _note_session(items=n, serial=1)
        return _execute_serial(items, runner)
    pool = _ensure_pool(jobs)
    if pool is None:
        _note_session(items=n, fallbacks=1)
        return _execute_serial(items, runner)
    options = current_options()
    spans = _plan_chunks([weigh(item) for item in items], jobs)

    global _pool_busy
    with _pool_lock:
        _pool_busy += 1
    futures: list[tuple[int, int, object]] = []
    try:
        try:
            for start, stop in spans:
                futures.append((start, stop, pool.submit(
                    _exec_chunk, runner, tuple(items[start:stop]), options)))
        except (BrokenProcessPool, RuntimeError):
            # RuntimeError: another thread observed the break first and
            # the executor refuses new futures mid-shutdown.
            for _, _, future in futures:
                future.cancel()
            _discard_pool()
            _note_session(items=n, fallbacks=1)
            return _execute_serial(items, runner)

        outcomes: list = [None] * n
        failed_at: int | None = None
        # Collect in index order (submission order was only for the
        # pool's scheduling): the first failing *index* must win
        # deterministically, exactly as a serial run would fail.
        for start, stop, future in sorted(futures, key=lambda f: f[0]):
            if failed_at is not None:
                future.cancel()
                continue
            try:
                outcomes[start:stop] = future.result()
            except BrokenProcessPool:
                for _, _, other in futures:
                    other.cancel()
                _discard_pool()
                _note_session(items=n, fallbacks=1)
                return _execute_serial(items, runner)
            except Exception as exc:
                # A chunk-level failure outside item execution (e.g. an
                # unpicklable return): attribute it to the chunk's head.
                outcomes[start] = (False, exc)
                failed_at = start
                continue
            for index in range(start, stop):
                ok, _ = outcomes[index]
                if not ok:
                    failed_at = index
                    break
    finally:
        with _pool_lock:
            _pool_busy -= 1

    _note_session(items=n, batches=1, chunks=len(spans))
    if failed_at is not None:
        _, cause = outcomes[failed_at]
        raise _ItemFailure(failed_at, cause) from cause
    return [payload for _, payload in outcomes]


# ----------------------------------------------------------------------
# The suite-wide run session
# ----------------------------------------------------------------------
@dataclass
class RunSession:
    """One warmed pool shared by everything run inside the scope.

    ``repro-experiments --all --jobs N`` (and the chaos matrix CLI)
    open one session for the whole suite: the pool starts and warms
    once, then every figure's cells and every crash case flow through
    it as chunked submissions.  The session also keeps simple counters
    so the CLI can report what the pool actually did.
    """

    jobs: int
    warmed: bool = False
    items: int = 0
    batches: int = 0
    chunks: int = 0
    serial: int = 0
    fallbacks: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def _note(self, items: int = 0, batches: int = 0, chunks: int = 0,
              serial: int = 0, fallbacks: int = 0) -> None:
        with self._lock:
            self.items += items
            self.batches += batches
            self.chunks += chunks
            self.serial += serial
            self.fallbacks += fallbacks

    def describe(self) -> str:
        info = pool_info()
        pool = (f"{info['workers']} workers ({info['start_method']})"
                if info else "no pool (serial)")
        return (f"session: {pool}, {self.items} cells/tasks in "
                f"{self.batches} pooled batches ({self.chunks} chunks, "
                f"{self.serial} serial batches, {self.fallbacks} fallbacks)")


_session: RunSession | None = None


@contextlib.contextmanager
def run_session(jobs: int):
    """Open a suite-wide session: warm the shared pool once, up front.

    Purely an optimisation scope — execution semantics (ordering,
    determinism, fallback) are identical inside and outside a session,
    and the pool it warms persists after the scope exits.
    """
    global _session
    session = RunSession(jobs=jobs)
    session.warmed = warm_pool(jobs)
    previous = _session
    _session = session
    try:
        yield session
    finally:
        _session = previous


# ----------------------------------------------------------------------
# Execution entry points
# ----------------------------------------------------------------------
def run_cell(cell: Cell) -> RunResult:
    """Build and measure one cell from scratch (runs inside workers too).

    What the run attaches is read once from :func:`current_options` —
    in a worker, that is the value the chunk arrived with.
    """
    options = current_options()
    hierarchy = StorageHierarchy(cell.shape, cell.scale,
                                 memory_mode=cell.memory_mode)
    if options.fault_plan is not None:
        # Devices must be wrapped before the BM captures references.
        from ..faults.injector import inject_faults

        inject_faults(hierarchy, options.fault_plan)
    config = cell.bm_config
    if config is None:
        config = BufferManagerConfig(seed=cell.seed)
    spec = cell.workload

    multi = None
    if cell.tenants:
        # The tenant page layout (stride with growth headroom) is owned
        # by the workload; the core's TenancyConfig is derived from it.
        multi = MultiTenantWorkload(cell.tenants, cell.scale, seed=spec.seed)
        options = replace(options, track_tenants=True)
        if config.tenancy is None:
            config = replace(config, tenancy=TenancyConfig(
                num_tenants=multi.num_tenants,
                page_stride=multi.page_stride,
                quota_mode=QuotaMode(cell.quota_mode),
                shares=cell.shares,
                policy_presets=tuple(
                    t.policy_preset for t in cell.tenants
                ),
            ))
    elif options.track_tenants and config.tenancy is None:
        config = replace(config, tenancy=TenancyConfig.single())

    bm = BufferManager(hierarchy, cell.policy, config)
    channel = options.telemetry
    live = {}
    if channel is not None:
        channel.emit(
            "cell_start", cell=cell.label,
            expected_ops=cell.effort.warmup_ops + cell.effort.measure_ops,
        )
        live = dict(progress=channel.progress_callback(cell.label),
                    progress_every_ops=channel.every_ops)
    runner = WorkloadRunner(
        bm,
        RunConfig(
            warmup_ops=cell.effort.warmup_ops,
            measure_ops=cell.effort.measure_ops,
            workers=cell.workers,
            with_wal=cell.with_wal,
            options=options,
            **live,
        ),
    )
    try:
        if multi is not None:
            result = runner.measure_tenants(
                multi, label=cell.label,
                extra_worker_counts=cell.extra_worker_counts,
            )
        elif spec.kind == "ycsb":
            num_tuples = cell.scale.pages(spec.db_gb) * TUPLES_PER_PAGE
            workload = YcsbWorkload(num_tuples=num_tuples,
                                    mix=MIXES[spec.mix],
                                    skew=spec.skew, seed=spec.seed)
            result = runner.measure_ycsb(
                workload, extra_worker_counts=cell.extra_worker_counts
            )
        else:
            workload = TpccWorkload(db_gigabytes=spec.db_gb,
                                    scale=cell.scale, seed=spec.seed)
            result = runner.measure_tpcc(
                workload, extra_worker_counts=cell.extra_worker_counts
            )
    except Exception as exc:
        if channel is not None:
            channel.emit("cell_error", cell=cell.label,
                         error=f"{type(exc).__name__}: {exc}")
        raise
    if channel is not None:
        channel.emit("cell_end", cell=cell.label,
                     operations=result.operations)
    return result


def _cell_weight(cell: Cell) -> float:
    """Expected relative cost of one cell, from its Effort envelope."""
    return float(cell.effort.warmup_ops + cell.effort.measure_ops)


def run_cells(cells, jobs: int = 1) -> list[RunResult]:
    """Run a batch of cells and return results in submission order.

    ``jobs=1`` (or a single cell) executes in-process with no pool at
    all.  ``jobs>1`` fans contiguous chunks of cells over the
    persistent pool; if the platform cannot spawn workers the batch
    degrades to serial, which produces identical results because every
    cell is self-contained.  While :func:`metrics_collection` is
    active, the whole batch's ``(label, result)`` pairs are appended to
    the sink — in submission order — once the batch succeeds.
    """
    cells = list(cells)
    try:
        results = _execute(cells, run_cell, jobs, _cell_weight)
    except _ItemFailure as failure:
        raise CellExecutionError(
            cells[failure.index], failure.cause) from failure.cause
    _record_results(cells, results)
    return results


def run_tasks(fn, items, jobs: int = 1, weigh=None) -> list:
    """Run ``fn`` over ``items`` with the executor's determinism rules.

    The generic sibling of :func:`run_cells` for non-Cell work (the
    chaos crash-point matrix fans out :class:`CrashCase` values this
    way): results come back in submission order regardless of
    completion order, ``jobs<=1`` runs in-process with no pool, and a
    pool that cannot spawn (or breaks wholesale) degrades to a serial
    rerun — identical output, because tasks are self-contained and
    deterministic.  ``fn`` and every item must be picklable.  ``weigh``
    optionally maps an item to its expected relative cost, steering the
    chunk planner's longest-expected-first schedule (default: uniform).
    """
    items = list(items)
    if weigh is None:
        weigh = _uniform_weight
    try:
        return _execute(items, fn, jobs, weigh)
    except _ItemFailure as failure:
        raise failure.cause


def _uniform_weight(_item) -> float:
    return 1.0


@dataclass
class CellBatch:
    """Declare-then-run helper for figure modules.

    Figures accumulate ``(key, cell)`` pairs while walking their grids,
    call :meth:`run`, and read results back by key — keeping the
    declaration order (which fixes the output order) separate from the
    execution order (which the pool is free to shuffle).
    """

    cells: list[Cell] = field(default_factory=list)
    keys: list[object] = field(default_factory=list)
    #: Companion set for O(1) duplicate detection (hashable keys only;
    #: unhashable keys fall back to a linear scan).
    _seen: set = field(default_factory=set, repr=False, compare=False)

    def add(self, key: object, cell: Cell) -> None:
        try:
            duplicate = key in self._seen
        except TypeError:  # unhashable key
            duplicate = key in self.keys
        else:
            self._seen.add(key)
        if duplicate:
            raise ValueError(f"duplicate cell key {key!r}")
        self.keys.append(key)
        self.cells.append(cell)

    def run(self, jobs: int = 1) -> dict[object, RunResult]:
        results = run_cells(self.cells, jobs=jobs)
        return dict(zip(self.keys, results))
