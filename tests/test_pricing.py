"""Hierarchy shapes, pricing, and performance/price."""

import pytest

from repro.hardware.pricing import (
    HierarchyShape,
    hierarchy_cost,
    performance_per_price,
)
from repro.hardware.specs import Tier


class TestHierarchyShape:
    def test_tiers_present(self):
        shape = HierarchyShape(dram_gb=1, nvm_gb=2, ssd_gb=3)
        assert shape.tiers == (Tier.DRAM, Tier.NVM, Tier.SSD)

    def test_two_tier_shapes(self):
        assert HierarchyShape(1, 0, 3).tiers == (Tier.DRAM, Tier.SSD)
        assert HierarchyShape(0, 2, 3).tiers == (Tier.NVM, Tier.SSD)

    def test_labels(self):
        assert HierarchyShape(1, 2, 3).label == "DRAM-NVM-SSD"
        assert HierarchyShape(0, 2, 3).label == "NVM-SSD"
        assert HierarchyShape(0, 0, 0).label == "EMPTY"

    def test_capacity_lookup(self):
        shape = HierarchyShape(1, 2, 3)
        assert shape.capacity_gb(Tier.DRAM) == 1
        assert shape.capacity_gb(Tier.NVM) == 2
        assert shape.capacity_gb(Tier.SSD) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HierarchyShape(dram_gb=-1)


class TestPricing:
    def test_cost_from_table1_prices(self):
        shape = HierarchyShape(dram_gb=4, nvm_gb=40, ssd_gb=200)
        # 4*10 + 40*4.5 + 200*2.8 = 40 + 180 + 560
        assert hierarchy_cost(shape) == pytest.approx(780.0)

    def test_empty_is_free(self):
        assert hierarchy_cost(HierarchyShape()) == 0.0

    def test_performance_per_price(self):
        assert performance_per_price(7800.0, 780.0) == pytest.approx(10.0)

    def test_zero_cost_rejected(self):
        with pytest.raises(ValueError):
            performance_per_price(100.0, 0.0)
