"""The shared experiment builders (bench/experiments/common)."""

from repro.bench.experiments.common import (
    COARSE_SCALE,
    FULL,
    HYMEM_SHAPE,
    POLICY_SHAPE,
    QUICK,
    SWEEP_PROBS,
    Cell,
    Effort,
    build_bm,
    effort,
)
from repro.bench.executor import run_cell
from repro.core.policy import NVM_SSD_POLICY, SPITFIRE_LAZY
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale

TINY = SimulationScale(pages_per_gb=4)


class TestEffort:
    def test_quick_vs_full(self):
        assert effort(True) is QUICK
        assert effort(False) is FULL
        assert FULL.measure_ops > QUICK.measure_ops
        assert FULL.warmup_ops > QUICK.warmup_ops


class TestPaperConstants:
    def test_policy_hierarchy_is_section_63(self):
        assert POLICY_SHAPE.dram_gb == 12.5
        assert POLICY_SHAPE.nvm_gb == 50.0

    def test_hymem_hierarchy_is_section_65(self):
        assert HYMEM_SHAPE.dram_gb == 8.0
        assert HYMEM_SHAPE.nvm_gb == 32.0

    def test_sweep_probabilities(self):
        assert SWEEP_PROBS == (0.0, 0.01, 0.1, 1.0)

    def test_coarse_scale_is_coarser(self):
        from repro.hardware.specs import DEFAULT_SCALE

        assert COARSE_SCALE.pages_per_gb < DEFAULT_SCALE.pages_per_gb


class TestBuilders:
    def test_build_bm_three_tier(self):
        bm = build_bm(HierarchyShape(1, 4, 100), SPITFIRE_LAZY, scale=TINY)
        assert bm.has_dram and bm.has_nvm
        assert bm.policy is SPITFIRE_LAZY

    def test_build_bm_memory_mode(self):
        bm = build_bm(HierarchyShape(1, 4, 100), NVM_SSD_POLICY, scale=TINY,
                      memory_mode=True)
        assert bm.hierarchy.memory_mode

    def test_run_ycsb_end_to_end(self):
        cell = Cell.ycsb("ycsb", HierarchyShape(1, 4, 100), SPITFIRE_LAZY,
                         "YCSB-RO", 8.0, scale=TINY,
                         effort=Effort(warmup_ops=100, measure_ops=200),
                         extra_worker_counts=(16,))
        result = run_cell(cell)
        assert result.operations == 200
        assert 16 in result.throughput_by_workers

    def test_run_tpcc_end_to_end(self):
        cell = Cell.tpcc("tpcc", HierarchyShape(1, 4, 100), SPITFIRE_LAZY,
                         4.0, scale=TINY,
                         effort=Effort(warmup_ops=100, measure_ops=200))
        result = run_cell(cell)
        assert result.operations == 200
        assert result.throughput > 0
