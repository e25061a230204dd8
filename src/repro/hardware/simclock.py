"""Simulated time as per-resource busy-time accounting.

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

Every charge commits, under the accumulator's lock, at the moment it is
made: nothing is held back per thread or per operation, so an observer
reading ``total_ns`` in the middle of an operation sees that
operation's charges so far — Table 1's costs land on one timeline as
each access happens.
"""

from __future__ import annotations

import threading

#: Fixed-point resolution: charges are integer multiples of 2**-20 ns.
FP_SHIFT = 20
FP_SCALE = 1 << FP_SHIFT


def to_fp(service_ns: float) -> int:
    """Quantise nanoseconds to fixed-point units (round half to even)."""
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


def makespan_from_fp(busy_fp: dict[str, int], workers: int = 1) -> float:
    """Simulated completion time of per-resource fixed-point busy time.

    The batch cannot finish faster than (a) the per-worker share of the
    total serialised demand, nor (b) the busy time of the most loaded
    shared device.  CPU demand divides across workers; device busy
    times do not (bandwidth figures in the specs are already aggregate
    device bandwidth).  The sum is taken over the integers, so the one
    rounding is the final division's, however long the window ran.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    per_worker = sum(busy_fp.values()) / FP_SCALE / workers
    device_bound_fp = max(
        (fp for key, fp in busy_fp.items() if key != CostAccumulator.CPU),
        default=0,
    )
    return max(per_worker, device_bound_fp / FP_SCALE)


def ops_per_sim_second(operations: int, span_ns: float) -> float:
    """Operations per simulated second over a makespan of ``span_ns``."""
    if operations <= 0:
        return 0.0
    if span_ns <= 0:
        return float("inf")
    return operations / (span_ns / 1e9)


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


class CostAccumulator:
    """Collects per-resource service demands for a batch of operations.

    Resources are identified by string keys: ``"cpu"`` plus one key per
    device channel (``"dram"``, ``"nvm"``, ``"ssd"``).  CPU demand is
    divisible across workers; device demand saturates at the device's
    aggregate bandwidth regardless of worker count.

    Every charge commits under the accumulator's lock at the moment it
    is made, so :attr:`total_ns` read mid-operation already holds the
    operation's charges so far: there is one timeline, and every
    observer reads it.
    """

    CPU = "cpu"

    def __init__(self) -> None:
        self._usage: dict[str, ResourceUsage] = {}
        self._lock = threading.Lock()
        #: Running sum of every committed charge.  Kept alongside the
        #: per-resource tallies so observability can read "simulated
        #: time so far" with a single attribute load on the hot path.
        self._total_fp = 0

    def charge(self, resource: str, service_ns: float, nbytes: int = 0) -> None:
        """Charge ``service_ns`` of busy time against ``resource``."""
        self.charge_fp(resource, checked_fp(service_ns), nbytes)

    def charge_fp(self, resource: str, service_fp: int, nbytes: int = 0,
                  operations: int = 1) -> None:
        """Charge an already-quantised (:func:`checked_fp`) service time,
        by default as one operation — the entry every charge goes
        through, committed under the lock before it returns."""
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

    def charge_batch(self, resource: str, service_ns_array) -> None:
        """Columnar charge: one locked reduction over per-op costs.

        Each element of ``service_ns_array`` is quantised exactly as the
        equivalent sequence of :meth:`charge` calls would have been, then
        summed as integers — the result is identical to charging each
        element individually, in any order.
        """
        total_fp = 0
        count = 0
        for service_ns in service_ns_array:
            total_fp += checked_fp(service_ns)
            count += 1
        self.charge_fp(resource, total_fp, 0, count)

    def charge_batch_fp(
        self, resource: str, total_fp: int, operations: int, nbytes: int = 0
    ) -> None:
        """Charge a pre-quantised, pre-reduced batch total."""
        if total_fp < 0:
            raise ValueError("service time must be non-negative")
        self.charge_fp(resource, total_fp, nbytes, operations)

    @property
    def total_ns(self) -> float:
        """Total committed service demand — the run's simulated timeline.

        A single attribute read (no lock, no dict walk): the
        :class:`~repro.obs.hub.MetricsHub` brackets every op's charge
        with two of these reads, so it must stay O(1).
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
        with self._lock:
            self._usage.clear()
            self._total_fp = 0

    # ------------------------------------------------------------------
    # Makespan / throughput analysis
    # ------------------------------------------------------------------
    def makespan_ns(self, workers: int = 1) -> float:
        """Simulated completion time of the accumulated work
        (:func:`makespan_from_fp` over the current tallies)."""
        with self._lock:
            busy_fp = {key: u.busy_fp for key, u in self._usage.items()}
        return makespan_from_fp(busy_fp, workers)

    def throughput(self, operations: int, workers: int = 1) -> float:
        """Operations per simulated second for the accumulated work."""
        return ops_per_sim_second(operations, self.makespan_ns(workers))

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
