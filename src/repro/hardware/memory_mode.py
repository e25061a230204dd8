"""Memory-mode emulation: DRAM as a direct-mapped write-back cache for NVM.

When Optane PMMs run in *memory mode* (§2.2 of the paper) the platform's
DRAM becomes a hardware-managed, direct-mapped, write-back L4 cache in
front of the PMMs, and software sees a single large volatile memory.  The
DBMS cannot exploit NVM persistence in this mode, so dirty pages must
still be flushed to SSD.

:class:`MemoryModeDevice` models this with a page-granular direct-mapped
cache: an access whose page maps to a matching cache slot is served at
DRAM cost; a miss is served at NVM cost plus a write-back of the evicted
slot when dirty.  This captures the behaviour Fig. 5 depends on — a
memory-mode DRAM-SSD hierarchy behaves like DRAM while the working set
fits the DRAM cache, and like (volatile) NVM beyond it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .device import Device, DeviceCounters
from .simclock import CostAccumulator
from .specs import DRAM_SPEC, NVM_SPEC, PAGE_SIZE, DeviceSpec, Tier


@dataclass
class MemoryModeStats:
    """Hit/miss statistics of the hardware-managed DRAM cache."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses


class MemoryModeDevice:
    """A volatile memory device backed by NVM with a DRAM L4 cache.

    The device exposes the same ``read``/``write`` costing interface as
    :class:`~repro.hardware.device.Device`, plus page-tagged variants used
    by the buffer manager so that the direct-mapped cache can track which
    page occupies each cache slot.
    """

    def __init__(
        self,
        dram_capacity_bytes: int,
        nvm_capacity_bytes: int,
        cost: CostAccumulator | None = None,
        dram_spec: DeviceSpec = DRAM_SPEC,
        nvm_spec: DeviceSpec = NVM_SPEC,
        page_size: int = PAGE_SIZE,
    ) -> None:
        if dram_capacity_bytes <= 0:
            raise ValueError("dram_capacity_bytes must be positive")
        if nvm_capacity_bytes < dram_capacity_bytes:
            raise ValueError(
                "memory mode requires NVM capacity >= DRAM capacity "
                "(DRAM is a cache for NVM)"
            )
        self.cost = cost if cost is not None else CostAccumulator()
        self.page_size = page_size
        self._dram = Device(dram_spec, dram_capacity_bytes, self.cost)
        self._nvm = Device(nvm_spec, nvm_capacity_bytes, self.cost)
        self._num_slots = max(1, dram_capacity_bytes // page_size)
        # slot -> (page_id, dirty); direct mapped, so each page has one slot.
        self._slots: dict[int, tuple[int, bool]] = {}
        self.stats = MemoryModeStats()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def tier(self) -> Tier:
        # Software sees one big volatile memory; it occupies the DRAM tier
        # slot of a two-tier hierarchy.
        return Tier.DRAM

    @property
    def spec(self) -> DeviceSpec:
        return self._nvm.spec

    @property
    def capacity_bytes(self) -> int:
        """Usable capacity equals the NVM capacity (DRAM is just a cache)."""
        return self._nvm.capacity_bytes or 0

    def capacity_pages(self, page_size: int | None = None) -> int:
        return self.capacity_bytes // (page_size or self.page_size)

    # ------------------------------------------------------------------
    def _touch(self, page_id: int, dirty: bool) -> bool:
        """Update the direct-mapped cache; return True on a DRAM hit."""
        slot = page_id % self._num_slots
        with self._lock:
            occupant = self._slots.get(slot)
            if occupant is not None and occupant[0] == page_id:
                self._slots[slot] = (page_id, occupant[1] or dirty)
                self.stats.hits += 1
                return True
            self.stats.misses += 1
            if occupant is not None and occupant[1]:
                self.stats.writebacks += 1
                needs_writeback = True
            else:
                needs_writeback = False
            self._slots[slot] = (page_id, dirty)
        if needs_writeback:
            self._nvm.write(self.page_size)
        return False

    def read_page(self, page_id: int, nbytes: int, sequential: bool = False) -> float:
        """Read ``nbytes`` from ``page_id``; DRAM cost on a cache hit."""
        if self._touch(page_id, dirty=False):
            return self._dram.read(nbytes, sequential)
        # Miss: the cache line fill streams the page from NVM.
        return self._nvm.read(nbytes, sequential)

    def write_page(self, page_id: int, nbytes: int, sequential: bool = False) -> float:
        """Write ``nbytes`` to ``page_id`` (write-back: DRAM on a hit)."""
        if self._touch(page_id, dirty=True):
            return self._dram.write(nbytes, sequential)
        return self._nvm.write(nbytes, sequential)

    # Plain Device-compatible entry points (no page identity — treated as
    # streaming accesses that always miss the cache).
    def read(self, nbytes: int, sequential: bool = False) -> float:
        self.stats.misses += 1
        return self._nvm.read(nbytes, sequential)

    def write(self, nbytes: int, sequential: bool = False) -> float:
        self.stats.misses += 1
        return self._nvm.write(nbytes, sequential)

    def persist_barrier(self) -> float:
        # Memory mode is volatile: persistence is not available, so a
        # barrier is a no-op (the DBMS must flush to SSD instead).
        return 0.0

    # ------------------------------------------------------------------
    def snapshot_counters(self) -> DeviceCounters:
        dram = self._dram.snapshot_counters()
        nvm = self._nvm.snapshot_counters()
        merged = DeviceCounters()
        for field_name in vars(merged):
            setattr(
                merged,
                field_name,
                getattr(dram, field_name) + getattr(nvm, field_name),
            )
        return merged

    def reset_counters(self) -> None:
        self._dram.reset_counters()
        self._nvm.reset_counters()
        with self._lock:
            self.stats = MemoryModeStats()
