"""StorageHierarchy construction and CPU cost constants."""

import pytest

from repro.hardware.cost_model import DEFAULT_CPU_COSTS, CpuCosts, StorageHierarchy
from repro.hardware.device import Device
from repro.hardware.memory_mode import MemoryModeDevice
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import PAGE_SIZE, SimulationScale, Tier

SCALE = SimulationScale(pages_per_gb=4)


class TestConstruction:
    def test_three_tier(self):
        hierarchy = StorageHierarchy(HierarchyShape(1, 2, 10), SCALE)
        assert hierarchy.has_tier(Tier.DRAM)
        assert hierarchy.has_tier(Tier.NVM)
        assert hierarchy.has_tier(Tier.SSD)

    def test_two_tier_skips_missing(self):
        hierarchy = StorageHierarchy(HierarchyShape(0, 2, 10), SCALE)
        assert not hierarchy.has_tier(Tier.DRAM)
        assert hierarchy.has_tier(Tier.NVM)

    def test_missing_tier_raises(self):
        hierarchy = StorageHierarchy(HierarchyShape(0, 2, 10), SCALE)
        with pytest.raises(KeyError):
            hierarchy.device(Tier.DRAM)

    def test_buffer_capacity_pages(self):
        hierarchy = StorageHierarchy(HierarchyShape(1, 2, 10), SCALE)
        assert hierarchy.buffer_capacity_pages(Tier.DRAM) == 4
        assert hierarchy.buffer_capacity_pages(Tier.NVM) == 8

    def test_devices_share_cost_accumulator(self):
        hierarchy = StorageHierarchy(HierarchyShape(1, 2, 10), SCALE)
        hierarchy.device(Tier.DRAM).read(64)
        hierarchy.device(Tier.NVM).read(64)
        assert hierarchy.cost.usage("dram").operations == 1
        assert hierarchy.cost.usage("nvm").operations == 1

    def test_dollar_cost(self):
        hierarchy = StorageHierarchy(HierarchyShape(1, 2, 10), SCALE)
        assert hierarchy.dollar_cost() == pytest.approx(1 * 10 + 2 * 4.5 + 10 * 2.8)


class TestMemoryMode:
    def test_memory_mode_builds_combined_device(self):
        hierarchy = StorageHierarchy(
            HierarchyShape(1, 2, 10), SCALE, memory_mode=True
        )
        device = hierarchy.device(Tier.DRAM)
        assert isinstance(device, MemoryModeDevice)
        assert not hierarchy.has_tier(Tier.NVM)
        # Buffer capacity equals the NVM capacity, not the DRAM cache.
        assert hierarchy.buffer_capacity_pages(Tier.DRAM) == 8

    def test_memory_mode_needs_both_tiers(self):
        with pytest.raises(ValueError):
            StorageHierarchy(HierarchyShape(1, 0, 10), SCALE, memory_mode=True)

    def test_app_direct_builds_plain_devices(self):
        hierarchy = StorageHierarchy(HierarchyShape(1, 2, 10), SCALE)
        assert isinstance(hierarchy.device(Tier.DRAM), Device)


class TestAccountingLifecycle:
    def test_charge_cpu(self):
        hierarchy = StorageHierarchy(HierarchyShape(1, 2, 10), SCALE)
        hierarchy.charge_cpu(100.0)
        assert hierarchy.cost.usage("cpu").busy_ns == pytest.approx(100.0)

    def test_throughput_delegates(self):
        hierarchy = StorageHierarchy(HierarchyShape(1, 2, 10), SCALE)
        hierarchy.charge_cpu(1e9)
        assert hierarchy.cost.throughput(100, workers=1) == pytest.approx(100.0)

    def test_reset_accounting(self):
        hierarchy = StorageHierarchy(HierarchyShape(1, 2, 10), SCALE)
        hierarchy.charge_cpu(100.0)
        hierarchy.device(Tier.NVM).write(64)
        hierarchy.reset_accounting()
        assert hierarchy.cost.usage("cpu").busy_ns == 0.0
        assert hierarchy.device(Tier.NVM).snapshot_counters().write_ops == 0


class TestCpuCosts:
    def test_defaults_positive(self):
        for name in (
            "lookup_ns", "eviction_ns", "migration_ns",
            "cacheline_bookkeeping_ns", "minipage_slot_ns", "index_ns",
            "logging_ns", "copy_ns_per_kb",
        ):
            assert getattr(DEFAULT_CPU_COSTS, name) > 0

    def test_copy_ns_scales_with_bytes(self):
        costs = CpuCosts(copy_ns_per_kb=100.0)
        assert costs.copy_ns(1024) == pytest.approx(100.0)
        assert costs.copy_ns(PAGE_SIZE) == pytest.approx(1600.0)
