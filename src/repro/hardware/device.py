"""Simulated storage devices.

Each device wraps a :class:`~repro.hardware.specs.DeviceSpec` and charges
access costs (latency + transfer time, with media-granularity
amplification) to a shared :class:`~repro.hardware.simclock.CostAccumulator`.
Devices also track cumulative read/write volume, which the lifetime
experiments (Figs. 8 and 13 of the paper) report directly.

Devices do not store page *content* — the page layer owns content; the
device layer owns capacity accounting and cost.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .simclock import CostAccumulator, ResourceUsage, checked_fp
from .specs import DeviceSpec, Tier

_CPU = CostAccumulator.CPU


#: Shapes one device memoises a charge plan for; further ones are
#: derived per access, as every access used to be.
_MAX_PLANS = 256


@dataclass
class DeviceCounters:
    """Cumulative traffic counters for one device."""

    read_ops: int = 0
    write_ops: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    #: Bytes actually touched on the media (>= logical bytes because of the
    #: media access granularity). Endurance is consumed in media bytes.
    media_read_bytes: int = 0
    media_write_bytes: int = 0
    persist_barriers: int = 0

    def copy(self) -> "DeviceCounters":
        return DeviceCounters(
            self.read_ops,
            self.write_ops,
            self.read_bytes,
            self.write_bytes,
            self.media_read_bytes,
            self.media_write_bytes,
            self.persist_barriers,
        )


class Device:
    """A single simulated storage device.

    Parameters
    ----------
    spec:
        Performance characteristics (Table 1 of the paper).
    capacity_bytes:
        Usable capacity. ``None`` means unbounded (useful for the SSD,
        which holds the whole database in every experiment).
    cost:
        Accumulator that receives simulated service demands. A fresh
        accumulator is created when omitted.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        capacity_bytes: int | None = None,
        cost: CostAccumulator | None = None,
    ) -> None:
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ValueError("capacity_bytes must be non-negative")
        self.spec = spec
        self.capacity_bytes = capacity_bytes
        self.cost = cost if cost is not None else CostAccumulator()
        self.counters = DeviceCounters()
        self._lock = threading.Lock()
        # Hot-path constants, precomputed to keep read()/write() cheap.
        self._key = spec.tier.value
        self._gran = spec.media_granularity
        self._seq_read_lat = spec.seq_read_latency_ns
        self._rand_read_lat = spec.rand_read_latency_ns
        self._seq_read_ns_per_byte = 1e9 / spec.seq_read_bw
        self._rand_read_ns_per_byte = 1e9 / spec.rand_read_bw
        self._seq_write_ns_per_byte = 1e9 / spec.seq_write_bw
        self._rand_write_ns_per_byte = 1e9 / spec.rand_write_bw
        self._is_ssd = spec.tier is Tier.SSD
        barrier_ns = spec.persist_barrier_ns
        self._barrier_fp = checked_fp(barrier_ns) if barrier_ns else None
        #: ``(nbytes, sequential) -> (media bytes, transfer_fp,
        #: latency_fp, service_ns)``: the cost of an access depends on
        #: its shape only, so it is derived and quantised once per shape
        #: (:meth:`_plan`) and charged as integers ever after.
        self._read_plans: dict[tuple[int, bool], tuple] = {}
        self._write_plans: dict[tuple[int, bool], tuple] = {}

    # ------------------------------------------------------------------
    @property
    def tier(self) -> Tier:
        return self.spec.tier

    @property
    def resource_key(self) -> str:
        """Key under which this device's demand is accumulated."""
        return self.spec.tier.value

    def capacity_pages(self, page_size: int) -> int | None:
        if self.capacity_bytes is None:
            return None
        return self.capacity_bytes // page_size

    # ------------------------------------------------------------------
    # Access costing
    # ------------------------------------------------------------------
    def _plan(self, nbytes: int, sequential: bool, is_write: bool) -> tuple:
        """Derive, validate and memoise the charge plan of one shape.

        The float steps are the ones every access used to repeat —
        ``media * ns_per_byte`` then quantise, latency quantised on its
        own — so the integers charged are the same to the last unit.
        ``latency_fp`` is ``None`` where no worker stall is charged at
        all (a write to byte-addressable memory).
        """
        gran = self._gran
        media = ((nbytes + gran - 1) // gran) * gran if nbytes > 0 else 0
        latency = self._seq_read_lat if sequential else self._rand_read_lat
        if is_write:
            plans = self._write_plans
            transfer = media * (self._seq_write_ns_per_byte if sequential
                                else self._rand_write_ns_per_byte)
            if not self._is_ssd:
                # Only block devices pay their access latency on writes.
                latency = 0.0
            latency_fp = checked_fp(latency) if latency else None
        else:
            plans = self._read_plans
            transfer = media * (self._seq_read_ns_per_byte if sequential
                                else self._rand_read_ns_per_byte)
            latency_fp = checked_fp(latency)
        plan = (media, checked_fp(transfer), latency_fp, latency + transfer)
        # Page, tuple, column and line-multiple sizes repeat; summed log
        # sizes need not, so the memo stops growing at a fixed size.
        if len(plans) < _MAX_PLANS:
            plans[(nbytes, sequential)] = plan
        return plan

    def read(self, nbytes: int, sequential: bool = False) -> float:
        """Charge a read of ``nbytes`` and return its service time (ns).

        The idle access latency is time the *issuing worker* waits —
        concurrent workers overlap it — so it is charged to the divisible
        CPU/worker resource; only the media transfer occupies the device.
        Counters and both charges commit in this one frame: the two
        ``CostAccumulator.charge_fp`` calls — device slot first, then the
        stall, under the same lock acquisition — spelled out on the
        accumulator's own state, so every total, operation count and
        slot order is theirs to the unit.
        """
        plan = self._read_plans.get((nbytes, sequential))
        if plan is None:
            plan = self._plan(nbytes, sequential, False)
        media, transfer_fp, latency_fp, service_ns = plan
        counters = self.counters
        with self._lock:
            counters.read_ops += 1
            counters.read_bytes += nbytes
            counters.media_read_bytes += media
        cost = self.cost
        usage_of = cost._usage
        with cost._lock:
            usage = usage_of.get(self._key)
            if usage is None:
                usage = usage_of[self._key] = ResourceUsage()
            usage.busy_fp += transfer_fp
            usage.operations += 1
            usage.bytes_moved += media
            cost._total_fp += transfer_fp
            # A read always stalls its worker.
            usage = usage_of.get(_CPU)
            if usage is None:
                usage = usage_of[_CPU] = ResourceUsage()
            usage.busy_fp += latency_fp
            usage.operations += 1
            cost._total_fp += latency_fp
        return service_ns

    def write(self, nbytes: int, sequential: bool = False) -> float:
        """Charge a write of ``nbytes`` and return its service time (ns),
        in one frame as :meth:`read` does."""
        plan = self._write_plans.get((nbytes, sequential))
        if plan is None:
            plan = self._plan(nbytes, sequential, True)
        media, transfer_fp, latency_fp, service_ns = plan
        counters = self.counters
        with self._lock:
            counters.write_ops += 1
            counters.write_bytes += nbytes
            counters.media_write_bytes += media
        cost = self.cost
        usage_of = cost._usage
        with cost._lock:
            usage = usage_of.get(self._key)
            if usage is None:
                usage = usage_of[self._key] = ResourceUsage()
            usage.busy_fp += transfer_fp
            usage.operations += 1
            usage.bytes_moved += media
            cost._total_fp += transfer_fp
            if latency_fp is None:
                # A write to byte-addressable memory stalls no worker.
                return service_ns
            usage = usage_of.get(_CPU)
            if usage is None:
                usage = usage_of[_CPU] = ResourceUsage()
            usage.busy_fp += latency_fp
            usage.operations += 1
            cost._total_fp += latency_fp
        return service_ns

    # ------------------------------------------------------------------
    # Columnar (batched) access costing
    # ------------------------------------------------------------------
    def read_batch(self, nbytes: int, count: int, sequential: bool = False):
        """Charge ``count`` reads of ``nbytes`` with one locked reduction.

        Returns the per-op ``(transfer_fp, latency_fp)``: a uniform batch
        is ``count`` copies of one :meth:`read` plan, so the counter bumps
        and cost charges equal ``count`` calls of :meth:`read` exactly.
        """
        plan = self._read_plans.get((nbytes, sequential))
        if plan is None:
            plan = self._plan(nbytes, sequential, False)
        media = plan[0]
        counters = self.counters
        with self._lock:
            counters.read_ops += count
            counters.read_bytes += nbytes * count
            counters.media_read_bytes += media * count
        return self._charge_batch(plan, count)

    def write_batch(self, nbytes: int, count: int, sequential: bool = False):
        """Batched :meth:`write` — same contract as :meth:`read_batch`."""
        plan = self._write_plans.get((nbytes, sequential))
        if plan is None:
            plan = self._plan(nbytes, sequential, True)
        media = plan[0]
        counters = self.counters
        with self._lock:
            counters.write_ops += count
            counters.write_bytes += nbytes * count
            counters.media_write_bytes += media * count
        return self._charge_batch(plan, count)

    def _charge_batch(self, plan: tuple, count: int) -> tuple[int, int]:
        media, transfer_fp, latency_fp, _ = plan
        self.cost.charge_batch_fp(self._key, transfer_fp * count, count,
                                  media * count)
        if latency_fp is None:
            # write() charges no worker stall here, so neither may a batch.
            return transfer_fp, 0
        self.cost.charge_batch_fp(CostAccumulator.CPU, latency_fp * count,
                                  count)
        return transfer_fp, latency_fp

    def persist_barrier(self) -> float:
        """Charge a persistence barrier (clwb + sfence on NVM).

        The barrier stalls the issuing worker, not the device, so it is
        charged as worker time.
        """
        with self._lock:
            self.counters.persist_barriers += 1
        if self._barrier_fp is not None:
            self.cost.charge_fp(CostAccumulator.CPU, self._barrier_fp)
        return self.spec.persist_barrier_ns

    # ------------------------------------------------------------------
    def snapshot_counters(self) -> DeviceCounters:
        with self._lock:
            return self.counters.copy()

    def reset_counters(self) -> None:
        with self._lock:
            self.counters = DeviceCounters()

    def write_volume_gb(self) -> float:
        """Cumulative media write volume in (real) gigabytes."""
        with self._lock:
            return self.counters.media_write_bytes / 1e9

    def endurance_consumed(self) -> float:
        """Fraction of device endurance consumed so far.

        Endurance is modelled as ``capacity * endurance_cycles`` total media
        write bytes; unbounded-capacity devices report 0.
        """
        if not self.capacity_bytes:
            return 0.0
        total = self.capacity_bytes * self.spec.endurance_cycles
        with self._lock:
            return self.counters.media_write_bytes / total

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = "inf" if self.capacity_bytes is None else str(self.capacity_bytes)
        return f"Device({self.spec.name!r}, capacity={cap})"


def cpu_charge(cost: CostAccumulator, service_ns: float) -> None:
    """Charge pure CPU work (index lookups, latching, copying logic)."""
    cost.charge(CostAccumulator.CPU, service_ns)
