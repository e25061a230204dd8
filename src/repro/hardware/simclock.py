"""Simulated clock and per-resource busy-time accounting.

The reproduction replaces wall-clock measurement with a discrete cost
model: every device access and every unit of CPU work charges simulated
nanoseconds to an accumulator.  A bottleneck (saturation) analysis then
converts the accumulated service demands into a simulated makespan for a
given number of workers, from which the benchmark harness derives
throughput.

This is the standard operational-analysis bound: with ``W`` closed-loop
workers the makespan of a batch of operations is at least the total
serialised work divided by ``W`` and at least the busy time of the most
loaded shared resource.  The paper's multi-threaded results are
device-bound (SSD or NVM bandwidth), which this model captures.

Accounting is fixed-point: every charge is quantised to integer units of
``2**-FP_SHIFT`` nanoseconds at the moment it is made, and all
accumulation is integer addition.  Integer addition is associative, so a
batched charge (one reduction over a whole array of per-op costs) lands
on exactly the same total as the equivalent sequence of per-op charges —
the property the columnar batch path's byte-identity guarantee rests on.
Floats only appear at the read-out edge (``busy_ns``, ``total_ns``), and
those conversions are exact as long as a single accumulator stays below
2**53 fixed-point units (≈ 8.6 simulated seconds at the default shift).
"""

from __future__ import annotations

import threading

from ..np_compat import np

#: Fixed-point resolution: charges are integer multiples of 2**-20 ns.
FP_SHIFT = 20
FP_SCALE = 1 << FP_SHIFT


def to_fp(service_ns: float) -> int:
    """Quantise nanoseconds to fixed-point units (round half to even).

    ``round()`` on a float and :func:`numpy.rint` both round half to
    even, so scalar and vectorised quantisation agree element for
    element — another identity the batch path depends on.
    """
    return round(service_ns * FP_SCALE)


def checked_fp(service_ns: float) -> int:
    """:func:`to_fp` for a charge: a negative service time is an error.

    Charges are validated where their float cost is quantised —
    :meth:`CostAccumulator.charge`, or once per shape when a device or
    the access path pre-quantises a cost it will charge many times —
    so :meth:`CostAccumulator.charge_fp` can take the integer as is.
    """
    if service_ns < 0:
        raise ValueError("service time must be non-negative")
    # to_fp() spelled out: this sits under every float charge.
    return round(service_ns * FP_SCALE)


def to_fp_array(service_ns_array):
    """Vectorised :func:`to_fp` over a numpy array (int64 result)."""
    return np.rint(
        np.asarray(service_ns_array, dtype=np.float64) * FP_SCALE
    ).astype(np.int64)


class SimClock:
    """A monotonically advancing simulated clock in nanoseconds.

    The clock is advanced explicitly (e.g. by the cost model or by the
    adaptive controller's epoch logic).  It is thread-safe so that the
    genuinely multi-threaded tests can share one clock.  Time is stored
    in fixed-point units so repeated advances cannot drift.
    """

    def __init__(self, start_ns: int = 0) -> None:
        self._now_fp = to_fp(start_ns)
        self._lock = threading.Lock()

    @property
    def now_ns(self) -> float:
        return self._now_fp / FP_SCALE

    @property
    def now_s(self) -> float:
        return self._now_fp / FP_SCALE / 1e9

    def advance(self, delta_ns: float) -> float:
        """Advance the clock by ``delta_ns`` and return the new time."""
        if delta_ns < 0:
            raise ValueError("cannot advance the clock backwards")
        with self._lock:
            self._now_fp += to_fp(delta_ns)
            return self._now_fp / FP_SCALE

    def advance_to(self, target_ns: float) -> float:
        """Advance the clock to ``target_ns`` if that is in the future.

        Unlike :meth:`advance`, a target in the past is a no-op rather
        than an error — epoch samplers race benignly for the same tick.
        """
        target_fp = to_fp(target_ns)
        with self._lock:
            if target_fp > self._now_fp:
                self._now_fp = target_fp
            return self._now_fp / FP_SCALE

    def reset(self) -> None:
        with self._lock:
            self._now_fp = 0


class ResourceUsage:
    """Accumulated service demand for a single shared resource.

    Busy time is held as an integer fixed-point tally (``busy_fp``);
    ``busy_ns`` is a derived float view for reports and JSON.
    """

    __slots__ = ("busy_fp", "operations", "bytes_moved")

    def __init__(
        self,
        busy_ns: float = 0.0,
        operations: int = 0,
        bytes_moved: int = 0,
        *,
        busy_fp: int | None = None,
    ) -> None:
        self.busy_fp = to_fp(busy_ns) if busy_fp is None else busy_fp
        self.operations = operations
        self.bytes_moved = bytes_moved

    @property
    def busy_ns(self) -> float:
        return self.busy_fp / FP_SCALE

    def charge(self, service_ns: float, nbytes: int = 0) -> None:
        self.busy_fp += to_fp(service_ns)
        self.operations += 1
        self.bytes_moved += nbytes

    def charge_fp(self, service_fp: int, nbytes: int = 0, operations: int = 1) -> None:
        """Charge an already-quantised amount, optionally for many ops."""
        self.busy_fp += service_fp
        self.operations += operations
        self.bytes_moved += nbytes

    def as_dict(self) -> dict[str, float | int]:
        """JSON-able form for run results and bench reports."""
        return {
            "busy_ns": self.busy_fp / FP_SCALE,
            "operations": self.operations,
            "bytes_moved": self.bytes_moved,
        }

    def merged(self, other: "ResourceUsage") -> "ResourceUsage":
        return ResourceUsage(
            busy_fp=self.busy_fp + other.busy_fp,
            operations=self.operations + other.operations,
            bytes_moved=self.bytes_moved + other.bytes_moved,
        )

    def copy(self) -> "ResourceUsage":
        return ResourceUsage(
            busy_fp=self.busy_fp,
            operations=self.operations,
            bytes_moved=self.bytes_moved,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResourceUsage):
            return NotImplemented
        return (
            self.busy_fp == other.busy_fp
            and self.operations == other.operations
            and self.bytes_moved == other.bytes_moved
        )

    def __repr__(self) -> str:
        return (
            f"ResourceUsage(busy_ns={self.busy_ns!r}, "
            f"operations={self.operations!r}, bytes_moved={self.bytes_moved!r})"
        )


class _CpuBatch(threading.local):
    """Per-thread deferred CPU demand for one logical operation.

    ``threading.local`` keeps concurrent workers' pending charges apart
    without any locking; ``__init__`` runs once per thread.  Charges
    arrive quantised and are summed as fixed-point integers, so the one
    commit lands on the unbatched totals exactly.
    """

    def __init__(self) -> None:
        self.depth = 0
        self.pending_fp = 0
        self.pending_ops = 0


class CostAccumulator:
    """Collects per-resource service demands for a batch of operations.

    Resources are identified by string keys: ``"cpu"`` plus one key per
    device channel (``"dram"``, ``"nvm"``, ``"ssd"``).  CPU demand is
    divisible across workers; device demand saturates at the device's
    aggregate bandwidth regardless of worker count.

    One buffer-manager operation makes several small CPU charges (hash
    lookup, device access latencies, migration bookkeeping).  The
    :meth:`begin_cpu_batch` / :meth:`end_cpu_batch` pair lets the caller
    coalesce them into a single locked charge per operation: while a
    batch is open on the current thread, CPU charges accumulate in a
    thread-local pending sum and commit when the outermost batch
    closes.  All tallies are fixed-point integers, so batched and
    per-op charge orders reduce to identical totals by construction.
    """

    CPU = "cpu"

    def __init__(self) -> None:
        self._usage: dict[str, ResourceUsage] = {}
        self._lock = threading.Lock()
        self._cpu_batch = _CpuBatch()
        #: Running sum of every committed charge.  Kept alongside the
        #: per-resource tallies so observability can read "simulated
        #: time so far" with a single attribute load on the hot path.
        self._total_fp = 0

    def begin_cpu_batch(self) -> None:
        """Open a per-operation CPU batch on the current thread."""
        self._cpu_batch.depth += 1

    def end_cpu_batch(self) -> None:
        """Close the batch; the outermost close commits the pending charges."""
        batch = self._cpu_batch
        batch.depth -= 1
        if batch.depth <= 0:
            batch.depth = 0
            operations = batch.pending_ops
            if operations:
                total_fp = batch.pending_fp
                batch.pending_fp = 0
                batch.pending_ops = 0
                with self._lock:
                    usage = self._usage.get(self.CPU)
                    if usage is None:
                        usage = ResourceUsage()
                        self._usage[self.CPU] = usage
                    usage.busy_fp += total_fp
                    usage.operations += operations
                    self._total_fp += total_fp

    def charge(self, resource: str, service_ns: float, nbytes: int = 0) -> None:
        """Charge ``service_ns`` of busy time against ``resource``."""
        self.charge_fp(resource, checked_fp(service_ns), nbytes)

    def charge_fp(self, resource: str, service_fp: int, nbytes: int = 0) -> None:
        """Charge one operation's already-quantised (:func:`checked_fp`)
        service time — the entry every per-op charge goes through."""
        if resource == self.CPU:
            batch = self._cpu_batch
            if batch.depth:
                if resource not in self._usage:
                    # Reserve the slot now: makespan_ns sums resources in
                    # dict insertion order, so the cpu slot must appear
                    # where an unbatched run would have created it.
                    self.reserve(resource)
                batch.pending_fp += service_fp
                batch.pending_ops += 1
                return
        self._commit_fp(resource, service_fp, 1, nbytes)

    def charge_transfer_fp(self, resource: str, transfer_fp: int, nbytes: int,
                           latency_fp: int | None) -> None:
        """Charge one device access: ``charge_fp(resource, transfer_fp,
        nbytes)`` then ``charge_fp(CPU, latency_fp)``, in one call.

        The transfer occupies the device; ``latency_fp`` is the issuing
        worker's stall (``None`` where none is charged at all).  Both
        land in the same order and at the same moment as the two calls
        would — the device slot commits first, the stall joins the open
        CPU batch or commits right after — so every total, operation
        count and slot order is the same to the unit.
        """
        usage_of = self._usage
        with self._lock:
            usage = usage_of.get(resource)
            if usage is None:
                usage = ResourceUsage()
                usage_of[resource] = usage
            # _commit_fp spelled out, then charge_fp's CPU branch.
            usage.busy_fp += transfer_fp
            usage.operations += 1
            usage.bytes_moved += nbytes
            self._total_fp += transfer_fp
            if latency_fp is None:
                return
            usage = usage_of.get(self.CPU)
            if usage is None:
                usage = ResourceUsage()
                usage_of[self.CPU] = usage
            batch = self._cpu_batch
            if not batch.depth:
                usage.busy_fp += latency_fp
                usage.operations += 1
                self._total_fp += latency_fp
                return
        batch.pending_fp += latency_fp
        batch.pending_ops += 1

    def reserve(self, resource: str) -> None:
        """Ensure ``resource`` has a slot without charging anything.

        The batch path uses this to reproduce the dict insertion order a
        per-op run would have produced (the CPU slot appears before the
        first device slot because the lookup charge reserves it).
        """
        if resource not in self._usage:
            with self._lock:
                self._usage.setdefault(resource, ResourceUsage())

    def charge_batch(self, resource: str, service_ns_array, nbytes_array=None) -> None:
        """Columnar charge: one locked reduction over per-op cost arrays.

        ``service_ns_array`` is quantised element-wise exactly as the
        equivalent sequence of :meth:`charge` calls would have been, then
        summed as integers — the result is identical to charging each
        element individually, in any order.
        """
        if np is not None and isinstance(service_ns_array, np.ndarray):
            fp_array = to_fp_array(service_ns_array)
            if np.any(fp_array < 0):
                raise ValueError("service time must be non-negative")
            total_fp = int(fp_array.sum())
            count = int(fp_array.size)
        else:
            total_fp = 0
            count = 0
            for service_ns in service_ns_array:
                total_fp += checked_fp(service_ns)
                count += 1
        nbytes = 0
        if nbytes_array is not None:
            nbytes = int(
                nbytes_array.sum()
                if np is not None and isinstance(nbytes_array, np.ndarray)
                else sum(nbytes_array)
            )
        self._commit_fp(resource, total_fp, count, nbytes)

    def charge_batch_fp(
        self, resource: str, total_fp: int, operations: int, nbytes: int = 0
    ) -> None:
        """Charge a pre-quantised, pre-reduced batch total."""
        if total_fp < 0:
            raise ValueError("service time must be non-negative")
        self._commit_fp(resource, total_fp, operations, nbytes)

    def _commit_fp(
        self, resource: str, service_fp: int, operations: int, nbytes: int
    ) -> None:
        with self._lock:
            usage = self._usage.get(resource)
            if usage is None:
                usage = ResourceUsage()
                self._usage[resource] = usage
            # ResourceUsage.charge_fp spelled out: one frame fewer
            # under every charge.
            usage.busy_fp += service_fp
            usage.operations += operations
            usage.bytes_moved += nbytes
            self._total_fp += service_fp

    @property
    def total_ns(self) -> float:
        """Total committed service demand — the run's simulated timeline.

        A single attribute read (no lock, no dict walk): the
        :class:`~repro.obs.hub.MetricsHub` brackets every op's charge
        with two of these reads, so it must stay O(1).  Charges still
        pending in an open CPU batch are not yet visible.
        """
        return self._total_fp / FP_SCALE

    @property
    def total_fp(self) -> int:
        """Fixed-point view of :attr:`total_ns` (exact, no rounding)."""
        return self._total_fp

    def usage(self, resource: str) -> ResourceUsage:
        """Current usage for ``resource`` (zeroes if never charged)."""
        with self._lock:
            found = self._usage.get(resource)
            if found is None:
                return ResourceUsage()
            return found.copy()

    def resources(self) -> list[str]:
        with self._lock:
            return sorted(self._usage)

    def snapshot(self) -> dict[str, ResourceUsage]:
        """A point-in-time copy of all resource usage."""
        with self._lock:
            return {key: u.copy() for key, u in self._usage.items()}

    def reset(self) -> None:
        # Resets happen between operations, so no batch should be open;
        # dropping the calling thread's pending charges keeps a stray
        # mid-batch reset from leaking pre-reset demand past it.
        batch = self._cpu_batch
        batch.pending_fp = 0
        batch.pending_ops = 0
        with self._lock:
            self._usage.clear()
            self._total_fp = 0

    # ------------------------------------------------------------------
    # Makespan / throughput analysis
    # ------------------------------------------------------------------
    def makespan_ns(self, workers: int = 1) -> float:
        """Simulated completion time of the accumulated work.

        The batch cannot finish faster than (a) the per-worker share of the
        total serialised demand, nor (b) the busy time of the most loaded
        shared device.  CPU demand divides across workers; device busy
        times do not (bandwidth figures in the specs are already aggregate
        device bandwidth).
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        snapshot = self.snapshot()
        total_fp = sum(u.busy_fp for u in snapshot.values())
        per_worker = total_fp / FP_SCALE / workers
        device_bound_fp = max(
            (u.busy_fp for key, u in snapshot.items() if key != self.CPU),
            default=0,
        )
        return max(per_worker, device_bound_fp / FP_SCALE)

    def throughput(self, operations: int, workers: int = 1) -> float:
        """Operations per simulated second for the accumulated work."""
        if operations <= 0:
            return 0.0
        span = self.makespan_ns(workers)
        if span <= 0:
            return float("inf")
        return operations / (span / 1e9)

    def delta_since(self, baseline: dict[str, ResourceUsage]) -> "CostAccumulator":
        """A new accumulator holding usage accrued since ``baseline``.

        ``baseline`` should be a previous :meth:`snapshot` of this
        accumulator.  Used by epoch-based tuning to measure each epoch
        independently.
        """
        delta = CostAccumulator()
        for key, usage in self.snapshot().items():
            base = baseline.get(key, ResourceUsage())
            delta._usage[key] = ResourceUsage(
                busy_fp=usage.busy_fp - base.busy_fp,
                operations=usage.operations - base.operations,
                bytes_moved=usage.bytes_moved - base.bytes_moved,
            )
            delta._total_fp += delta._usage[key].busy_fp
        return delta
