"""Storage-system design grid search (§6.6)."""

import pytest

from repro.core.policy import DRAM_SSD_POLICY, NVM_SSD_POLICY, SPITFIRE_LAZY
from repro.design.grid_search import (
    DesignPoint,
    DesignResult,
    enumerate_shapes,
    policy_for_shape,
)
from repro.hardware.pricing import (
    HierarchyShape,
    hierarchy_cost,
    performance_per_price,
)


class TestEnumerateShapes:
    def test_grid_excludes_empty_corner(self):
        shapes = enumerate_shapes((0.0, 4.0), (0.0, 40.0), ssd_gb=100.0)
        labels = {(s.dram_gb, s.nvm_gb) for s in shapes}
        assert (0.0, 0.0) not in labels
        assert len(shapes) == 3

    def test_default_grid_matches_fig14(self):
        shapes = enumerate_shapes()
        assert len(shapes) == 5 * 4 - 1

    def test_all_have_ssd(self):
        assert all(s.ssd_gb > 0 for s in enumerate_shapes())


class TestPolicyChooser:
    def test_three_tier_gets_lazy(self):
        assert policy_for_shape(HierarchyShape(4, 40, 100)) is SPITFIRE_LAZY

    def test_two_tier_natives(self):
        assert policy_for_shape(HierarchyShape(4, 0, 100)) is DRAM_SSD_POLICY
        assert policy_for_shape(HierarchyShape(0, 40, 100)) is NVM_SSD_POLICY


def synthetic_result() -> DesignResult:
    """A 3-point grid whose throughput rewards total buffer capacity:
    perf/price then prefers NVM (cheaper per GB)."""
    result = DesignResult("synthetic")
    for shape in enumerate_shapes((0.0, 4.0), (0.0, 40.0), ssd_gb=100.0):
        throughput = 1000.0 * (shape.dram_gb + shape.nvm_gb)
        cost = hierarchy_cost(shape)
        result.points.append(DesignPoint(
            shape=shape, cost_dollars=cost, throughput=throughput,
            perf_per_price=performance_per_price(throughput, cost)))
    return result


class TestGridSearch:
    def test_points_cover_grid(self):
        result = synthetic_result()
        assert len(result.points) == 3
        assert all(p.cost_dollars > 0 for p in result.points)

    def test_best_overall(self):
        result = synthetic_result()
        best = result.best()
        # perf/price: (4, 40) → 44000/500 = 88 beats (0, 40) → 40000/460
        # = 86.96 and (4, 0) → 4000/320 = 12.5.
        assert best.shape.nvm_gb == 40.0
        assert best.shape.dram_gb == 4.0

    def test_best_under_budget(self):
        result = synthetic_result()
        cheap = result.best(budget_dollars=330.0)
        assert cheap.cost_dollars <= 330.0

    def test_budget_too_small(self):
        result = synthetic_result()
        with pytest.raises(ValueError):
            result.best(budget_dollars=1.0)

    def test_grid_accessor(self):
        result = synthetic_result()
        grid = result.grid()
        assert (0.0, 40.0) in grid
        assert grid[(0.0, 40.0)] == result.point(0.0, 40.0).perf_per_price

    def test_point_lookup_missing(self):
        result = synthetic_result()
        with pytest.raises(KeyError):
            result.point(99.0, 99.0)

    def test_labels(self):
        result = synthetic_result()
        labels = {p.label for p in result.points}
        assert "NVM-SSD" in labels
        assert "DRAM-SSD" in labels
        assert "DRAM-NVM-SSD" in labels


class TestHeatmap:
    def test_render_marks_best_cell(self):
        text = synthetic_result().render_heatmap()
        assert "synthetic" in text
        assert "DRAM\\NVM" in text
        assert text.count("*") == 1
        # Best cell is (4, 40): the starred row is the 4 GB DRAM row.
        starred = [line for line in text.splitlines() if "*" in line]
        assert starred[0].strip().startswith("4 GB")
