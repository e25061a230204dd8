"""CPU cost constants and hierarchy construction.

This module assembles :class:`~repro.hardware.device.Device` instances for
a :class:`~repro.hardware.pricing.HierarchyShape` and centralises the CPU
cost constants used by the buffer manager.  The constants are calibrated
so that single-worker YCSB-RO throughput on an all-DRAM-resident working
set lands in the few-million-ops/s range the paper reports (Fig. 6a),
while keeping every cost a simple, inspectable number.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import Device
from .memory_mode import MemoryModeDevice
from .pricing import HierarchyShape
from .simclock import CostAccumulator
from .specs import (
    BUFFER_TIER_ORDER,
    DEFAULT_SCALE,
    DEFAULT_SPECS,
    PAGE_SIZE,
    DeviceSpec,
    SimulationScale,
    Tier,
)


@dataclass(frozen=True)
class CpuCosts:
    """Per-operation CPU service demands in nanoseconds.

    These model the computational overheads §5.2 of the paper calls out:
    mapping-table lookups, latching, replacement-policy bookkeeping, and
    the extra work of the HyMem page layouts.
    """

    #: Hash lookup + shared-descriptor latch per buffer request.
    lookup_ns: float = 120.0
    #: CLOCK hand advance + bitmap update per eviction decision.
    eviction_ns: float = 90.0
    #: Fixed overhead of starting any tier-to-tier migration (latching).
    migration_ns: float = 150.0
    #: Bitmask bookkeeping per cache-line-grained load.
    cacheline_bookkeeping_ns: float = 25.0
    #: Slot search/sort overhead per mini-page access (§6.5: sorting the
    #: slots is what erodes the mini-page benefit at larger loading units).
    minipage_slot_ns: float = 45.0
    #: Index traversal per tuple operation (B+Tree descent).
    index_ns: float = 220.0
    #: Log-record construction + NVM log-buffer append per update.
    logging_ns: float = 110.0
    #: CPU cost of copying page data between buffers, per KiB.  A 16 KB
    #: page migration moves the data through the CPU caches (~60 ns/KiB
    #: at a typical single-core memcpy rate), which is the dominant cost
    #: eager migration policies pay and fine-grained loading avoids.
    copy_ns_per_kb: float = 60.0

    def copy_ns(self, nbytes: int) -> float:
        """CPU time to copy ``nbytes`` between buffers."""
        return self.copy_ns_per_kb * nbytes / 1024.0


#: Default CPU calibration shared by benchmarks.
DEFAULT_CPU_COSTS = CpuCosts()


class StorageHierarchy:
    """The set of simulated devices for one experiment configuration.

    All devices share one :class:`CostAccumulator`, so the harness can
    convert a run's accumulated demands into a simulated
    makespan/throughput.

    Parameters
    ----------
    shape:
        Per-tier capacities in paper-scale gigabytes.
    scale:
        Mapping from paper gigabytes to simulated pages.
    memory_mode:
        When true, the DRAM capacity is used as a hardware cache in front
        of the NVM capacity and exposed as a single volatile device in the
        DRAM slot (Fig. 5's DRAM-SSD memory-mode configuration).
    """

    def __init__(
        self,
        shape: HierarchyShape,
        scale: SimulationScale = DEFAULT_SCALE,
        specs: dict[Tier, DeviceSpec] | None = None,
        cpu_costs: CpuCosts = DEFAULT_CPU_COSTS,
        memory_mode: bool = False,
        page_size: int = PAGE_SIZE,
    ) -> None:
        self.shape = shape
        self.scale = scale
        self.specs = dict(specs or DEFAULT_SPECS)
        self.cpu_costs = cpu_costs
        self.page_size = page_size
        self.memory_mode = memory_mode
        self.cost = CostAccumulator()
        self.devices: dict[Tier, Device | MemoryModeDevice] = {}
        self._build_devices()

    def _capacity_bytes(self, gigabytes: float) -> int:
        return self.scale.pages(gigabytes) * self.page_size

    def _build_devices(self) -> None:
        if self.memory_mode:
            if self.shape.dram_gb <= 0 or self.shape.nvm_gb <= 0:
                raise ValueError("memory mode needs both DRAM and NVM capacity")
            self.devices[Tier.DRAM] = MemoryModeDevice(
                dram_capacity_bytes=self._capacity_bytes(self.shape.dram_gb),
                nvm_capacity_bytes=self._capacity_bytes(self.shape.nvm_gb),
                cost=self.cost,
                dram_spec=self.specs[Tier.DRAM],
                nvm_spec=self.specs[Tier.NVM],
                page_size=self.page_size,
            )
        else:
            for tier in BUFFER_TIER_ORDER:
                capacity_gb = self.shape.capacity_gb(tier)
                if capacity_gb > 0:
                    self.devices[tier] = Device(
                        self.specs[tier],
                        self._capacity_bytes(capacity_gb),
                        self.cost,
                    )
        if self.shape.ssd_gb > 0:
            self.devices[Tier.SSD] = Device(
                self.specs[Tier.SSD],
                self._capacity_bytes(self.shape.ssd_gb),
                self.cost,
            )

    # ------------------------------------------------------------------
    def device(self, tier: Tier) -> Device | MemoryModeDevice:
        try:
            return self.devices[tier]
        except KeyError:
            raise KeyError(f"hierarchy {self.shape.label} has no {tier.name} tier") from None

    def has_tier(self, tier: Tier) -> bool:
        return tier in self.devices

    def charge_cpu(self, service_ns: float) -> None:
        self.cost.charge(CostAccumulator.CPU, service_ns)

    def charge_cpu_batch(self, service_ns_array) -> None:
        """Columnar CPU charge: one reduction over per-op demands."""
        self.cost.charge_batch(CostAccumulator.CPU, service_ns_array)

    def reset_accounting(self) -> None:
        """Clear cost and traffic counters (e.g. after buffer warm-up)."""
        self.cost.reset()
        for device in self.devices.values():
            device.reset_counters()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = " memory-mode" if self.memory_mode else ""
        return f"StorageHierarchy({self.shape.label}{mode})"
