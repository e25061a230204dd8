"""Memory-mode device: DRAM as a direct-mapped write-back cache for NVM."""

import pytest

from repro.hardware.memory_mode import MemoryModeDevice
from repro.hardware.specs import PAGE_SIZE, Tier


def make_device(dram_pages: int = 4, nvm_pages: int = 16) -> MemoryModeDevice:
    return MemoryModeDevice(
        dram_capacity_bytes=dram_pages * PAGE_SIZE,
        nvm_capacity_bytes=nvm_pages * PAGE_SIZE,
    )


class TestConstruction:
    def test_capacity_is_nvm_capacity(self):
        device = make_device(4, 16)
        assert device.capacity_bytes == 16 * PAGE_SIZE
        assert device.capacity_pages() == 16

    def test_occupies_dram_tier_slot(self):
        assert make_device().tier is Tier.DRAM

    def test_dram_must_not_exceed_nvm(self):
        with pytest.raises(ValueError):
            MemoryModeDevice(2 * PAGE_SIZE, PAGE_SIZE)

    def test_dram_capacity_required(self):
        with pytest.raises(ValueError):
            MemoryModeDevice(0, PAGE_SIZE)


class TestCacheBehaviour:
    def test_first_access_misses(self):
        device = make_device()
        device.read_page(0, 64)
        assert device.stats.misses == 1
        assert device.stats.hits == 0

    def test_repeat_access_hits(self):
        device = make_device()
        device.read_page(0, 64)
        device.read_page(0, 64)
        assert device.stats.hits == 1
        assert device.stats.accesses == 2

    def test_direct_mapped_conflict_evicts(self):
        device = make_device(dram_pages=4)
        device.read_page(0, 64)
        device.read_page(4, 64)  # same slot (4 % 4 == 0)
        device.read_page(0, 64)  # conflict miss again
        assert device.stats.misses == 3

    def test_distinct_slots_coexist(self):
        device = make_device(dram_pages=4)
        for page in range(4):
            device.read_page(page, 64)
        for page in range(4):
            device.read_page(page, 64)
        assert device.stats.hits == 4

    def test_dirty_eviction_writes_back(self):
        device = make_device(dram_pages=4)
        device.write_page(0, 64)     # dirty in slot 0
        device.read_page(4, 64)      # evicts dirty page 0
        assert device.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        device = make_device(dram_pages=4)
        device.read_page(0, 64)
        device.read_page(4, 64)
        assert device.stats.writebacks == 0

    def test_hit_costs_less_than_miss(self):
        device = make_device()
        miss_cost = device.read_page(0, 1024)
        hit_cost = device.read_page(0, 1024)
        assert hit_cost < miss_cost


class TestVolatility:
    def test_persist_barrier_is_noop(self):
        # Memory mode cannot expose persistence to software (§2.2).
        assert make_device().persist_barrier() == 0.0

    def test_plain_reads_treated_as_misses(self):
        device = make_device()
        device.read(1024)
        device.write(1024)
        assert device.stats.misses == 2

    def test_counters_merge_both_devices(self):
        device = make_device()
        device.read_page(0, 1024)
        device.write_page(1, 1024)
        counters = device.snapshot_counters()
        assert counters.read_ops == 1
        assert counters.write_ops == 1

    def test_reset_counters(self):
        device = make_device()
        device.read_page(0, 64)
        device.reset_counters()
        assert device.stats.accesses == 0
        assert device.snapshot_counters().read_ops == 0
