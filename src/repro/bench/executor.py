"""Parallel experiment executor: declarative batch items over a persistent pool.

Every figure in the paper is a set of independent, self-contained runs:
grid cells (one buffer manager, one workload, one policy/shape/knob
combination per point), Fig. 10's adaptive runs, the recovery pairs, and
the chaos matrix's crash cases.  Each is a **batch item**: a frozen,
picklable value with a ``run()`` method and a ``weight`` (its expected
relative cost).  :class:`Cell` is the grid point's item.
:func:`run_cells` runs a batch of items, either in-process (``jobs=1``)
or on a **persistent worker pool**: one
:class:`concurrent.futures.ProcessPoolExecutor` created lazily per
process and reused by every batch, so pool startup and worker warm-up
are paid once per process instead of once per figure.

Design rules:

* an item carries *specs*, never live objects: the worker builds its
  own hierarchy, buffer manager, and workload from scratch, so a
  parallel run draws exactly the same RNG streams as a serial run and
  the per-figure JSON output is byte-identical for any ``jobs`` value;
* results come back in submission order regardless of completion order;
* a cell is its simulation: two cells that compare equal (the label is
  display-only) are one run, so a suite's union of declared cells
  (:func:`repro.bench.experiments.run_suite`) runs each distinct cell
  once and hands every figure that declares it the one result;
* work is submitted as **contiguous chunks** sized from each item's
  ``weight`` (longest-expected-first), which amortises pickling and IPC
  over many small tasks while keeping load balanced;
* what a run attaches to its cells — metrics hub, decision tracer —
  is one
  :class:`~repro.bench.harness.RunOptions` value: :func:`run_options`
  scopes an override, :func:`run_cell` reads :func:`current_options`
  once, and every submission carries the submitter's value into the
  worker, which installs it around the chunk — a persistent pool
  outlives any scope, so nothing may rely on workers inheriting parent
  state;
* live progress is counted in the parent, off the results it already
  collects: :func:`progress_sink` scopes a sink that every batch tells
  what it begins and what finishes, and nothing about it reaches a
  worker;
* a failing item raises :class:`CellExecutionError` naming the item by
  its dataclass ``repr``, and never hangs the pool (remaining chunks
  are cancelled);
* when worker processes cannot be spawned at all (restricted sandboxes,
  missing ``os.fork``) or die wholesale mid-batch, the batch
  transparently degrades to serial in-process execution with identical
  results.

This module is imported by ``bench.experiments.common`` and imports
nothing from ``bench.experiments``.  ``multiprocessing`` and
``concurrent.futures`` load where a pool is first built, so a serial
run never imports them.
"""

from __future__ import annotations

import atexit
import contextlib
import contextvars
import pickle
import threading
from dataclasses import dataclass, field, replace
from functools import partial
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

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
    cleanly into worker processes and hash.  A cell says *what* is
    simulated and nothing else: ``label`` is display-only and outside
    equality, so two cells that compare equal are the same simulation
    (a suite runs it once).  What the run attaches to it
    (metrics, decision tracing) is the ambient
    :class:`~repro.bench.harness.RunOptions`, never a cell field.  A
    cell carries no worker count either: a reader picks one with
    :meth:`~repro.bench.harness.RunResult.throughput_at`.
    """

    label: str = field(compare=False)
    shape: HierarchyShape
    policy: MigrationPolicy
    workload: WorkloadSpec
    effort: Effort = QUICK
    scale: SimulationScale = DEFAULT_SCALE
    bm_config: BufferManagerConfig = BufferManagerConfig()
    memory_mode: bool = False
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

    @property
    def weight(self) -> float:
        """Expected relative cost: the cell's warm-up plus measure ops."""
        return float(self.effort.warmup_ops + self.effort.measure_ops)

    def run(self) -> RunResult:
        return run_cell(self)


class CellExecutionError(RuntimeError):
    """A batch item's ``run()`` raised; ``cell`` is the failing item."""

    def __init__(self, cell, cause: BaseException) -> None:
        self.cell = cell
        self.cause = cause
        super().__init__(f"batch item failed: {cause!r}\n  item: {cell!r}")


# ----------------------------------------------------------------------
# Run options: one value, one scope, one transport
# ----------------------------------------------------------------------
# The current RunOptions lives in a context variable (so a scope holds
# for the thread that entered it, and for no other).  A *persistent*
# pool forks once, so a scope entered after the pool exists cannot
# reach workers by inheritance: every submission carries the
# submitter's value and the worker installs it around the chunk it
# executes.

_options_var: contextvars.ContextVar[RunOptions] = contextvars.ContextVar(
    "repro_run_options", default=RunOptions())


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


# The progress sink is parent-side state: it lives beside the options,
# never in them, so it is never pickled and no worker sees it.
_progress_var: contextvars.ContextVar = contextvars.ContextVar(
    "repro_progress", default=None)


@contextlib.contextmanager
def progress_sink(sink):
    """Report every batch this thread executes in the scope to ``sink``.

    Each batch calls ``sink.begin(items, weight)`` once, then
    ``sink.advance(items, weight)`` as its results arrive: serially
    after each item, on the pool as each chunk's future completes (from
    the pool's result thread).  Failed and cancelled work counts
    nothing, and an item counts once, a serial rerun after a broken
    pool included.  ``weight`` sums the items' ``weight``.
    """
    token = _progress_var.set(sink)
    try:
        yield sink
    finally:
        _progress_var.reset(token)


class _Tally:
    """One batch's progress on a sink: each item is counted once."""

    def __init__(self, sink, weights: list[float]) -> None:
        self.sink = sink
        self.weights = weights
        self.pending = set(range(len(weights)))
        self.lock = threading.Lock()
        sink.begin(len(weights), sum(weights))

    def count(self, indexes) -> None:
        with self.lock:
            fresh = self.pending.intersection(indexes)
            self.pending -= fresh
        if fresh:
            self.sink.advance(len(fresh),
                              sum(self.weights[i] for i in fresh))

    def chunk_done(self, start: int, future) -> None:
        """``add_done_callback`` target: count the chunk's items that
        ran (a chunk stops at its first failing item)."""
        if future.cancelled() or future.exception() is not None:
            return
        self.count(start + offset
                   for offset, (ok, _) in enumerate(future.result()) if ok)


# ----------------------------------------------------------------------
# The persistent worker pool
# ----------------------------------------------------------------------
#: Chunks submitted per worker per batch — fine enough that a suite's
#: whole union of cells, one batch, ends with no worker idle for long
#: (at two workers quick ``--all``'s 276 cells go out two or three to a
#: chunk), while millisecond-sized chaos cases still share chunks.
CHUNKS_PER_WORKER = 64

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
    pool startup instead of the first measured cell.  It names modules,
    not packages: a package root imports nothing.
    """
    from ..core import batch_path, buffer_manager  # noqa: F401
    from ..engine import engine  # noqa: F401
    from ..faults import injector  # noqa: F401
    from . import harness  # noqa: F401


def _pool_context():
    """Pick the cheapest available start method: fork, then forkserver.

    ``fork`` gives pre-warmed workers for free (they inherit the
    parent's imported modules); ``forkserver`` isolates the fork from
    parent threads at the cost of re-importing (which the initializer
    front-loads); the platform default is the last resort.
    """
    import multiprocessing

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
        from concurrent.futures import ProcessPoolExecutor

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
    from concurrent.futures.process import BrokenProcessPool

    try:
        futures = [pool.submit(_ping) for _ in range(jobs)]
        for future in futures:
            future.result()
    except BrokenProcessPool:
        _discard_pool()
        return False
    return True


# ----------------------------------------------------------------------
# The submission engine
# ----------------------------------------------------------------------
class _ChunkSkipped(Exception):
    """Placeholder outcome for items after a failure in their chunk."""


def _as_picklable(exc: BaseException) -> BaseException:
    """Exceptions travel back as values; substitute when they can't."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _exec_chunk(items: tuple, options: RunOptions) -> list:
    """Worker-side entry: run one contiguous chunk under ``options``.

    Returns one ``(ok, payload)`` pair per item.  After the first
    failure the rest of the chunk is skipped — the parent raises at the
    first failing index, so later outcomes would be discarded anyway.
    """
    out: list[tuple[bool, object]] = []
    with run_options(options):
        for position, item in enumerate(items):
            try:
                out.append((True, item.run()))
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


def _execute_serial(items: list, tally: _Tally | None) -> list:
    results = []
    for index, item in enumerate(items):
        try:
            results.append(item.run())
        except Exception as exc:
            raise CellExecutionError(item, exc) from exc
        if tally is not None:
            tally.count((index,))
    return results


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
    config = cell.bm_config
    spec = cell.workload

    multi = None
    if cell.tenants:
        # The tenant page layout (stride with growth headroom) is owned
        # by the workload; the core's TenancyConfig is derived from it.
        multi = MultiTenantWorkload(cell.tenants, cell.scale, seed=spec.seed)
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

    bm = BufferManager(hierarchy, cell.policy, config)
    runner = WorkloadRunner(
        bm,
        RunConfig(
            warmup_ops=cell.effort.warmup_ops,
            measure_ops=cell.effort.measure_ops,
            options=options,
        ),
    )
    if multi is not None:
        return runner.measure_tenants(multi, label=cell.label)
    if spec.kind == "ycsb":
        num_tuples = cell.scale.pages(spec.db_gb) * TUPLES_PER_PAGE
        return runner.measure_ycsb(YcsbWorkload(
            num_tuples=num_tuples, mix=MIXES[spec.mix], skew=spec.skew,
            seed=spec.seed))
    return runner.measure_tpcc(TpccWorkload(
        db_gigabytes=spec.db_gb, scale=cell.scale, seed=spec.seed))


def run_cells(items, jobs: int = 1) -> list:
    """Run a batch of items; results in submission order.

    Each item is a frozen, picklable value with ``run()`` and
    ``weight`` (a :class:`Cell`, an adaptive run, a crash case).
    ``jobs=1`` (or a single item) runs them in-process with no pool at
    all.  ``jobs>1`` fans contiguous chunks over the persistent pool,
    heaviest first, with the current :class:`RunOptions` attached to
    every chunk; a pool that cannot spawn, or whose workers die
    wholesale, degrades to a serial rerun — identical output, because
    every item is self-contained and deterministic.  Every item runs,
    equal or not: sharing equal items is the caller's union
    (:func:`repro.bench.experiments.run_suite`).  The first failing item
    (in submission order) raises :class:`CellExecutionError`.  The
    current :func:`progress_sink`, if any, hears of the batch.
    """
    items = list(items)
    n = len(items)
    weights = [item.weight for item in items]
    sink = _progress_var.get()
    tally = _Tally(sink, weights) if sink is not None else None
    if jobs <= 1 or n <= 1:
        return _execute_serial(items, tally)
    pool = _ensure_pool(jobs)
    if pool is None:
        return _execute_serial(items, tally)
    from concurrent.futures.process import BrokenProcessPool

    options = current_options()
    spans = _plan_chunks(weights, jobs)

    global _pool_busy
    with _pool_lock:
        _pool_busy += 1
    futures: list[tuple[int, int, object]] = []
    try:
        try:
            for start, stop in spans:
                future = pool.submit(_exec_chunk, tuple(items[start:stop]),
                                     options)
                if tally is not None:
                    future.add_done_callback(partial(tally.chunk_done, start))
                futures.append((start, stop, future))
        except (BrokenProcessPool, RuntimeError):
            # RuntimeError: another thread observed the break first and
            # the executor refuses new futures mid-shutdown.
            for _, _, future in futures:
                future.cancel()
            _discard_pool()
            return _execute_serial(items, tally)

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
                return _execute_serial(items, tally)
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

    if failed_at is not None:
        _, cause = outcomes[failed_at]
        raise CellExecutionError(items[failed_at], cause) from cause
    if tally is not None:
        # A future's result() can return before its done-callbacks run:
        # settle the count before the batch is over.
        tally.count(range(n))
    return [payload for _, payload in outcomes]
