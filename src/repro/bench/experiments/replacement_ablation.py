"""Ablation: the CLOCK replacement choice vs LRU and FIFO.

Both HyMem and Spitfire use CLOCK [34] for its low per-hit overhead.
This ablation (a design-choice check DESIGN.md calls out, not a paper
figure) runs the same Spitfire-Lazy configuration with CLOCK, exact
LRU, and FIFO replacement on a skewed YCSB mix.

Expected shape: CLOCK tracks LRU closely (it approximates recency)
while FIFO trails — it evicts hot pages on schedule regardless of use.
"""

from __future__ import annotations

from ...core.buffer_manager import BufferManagerConfig
from ...core.policy import SPITFIRE_LAZY
from ...hardware.pricing import HierarchyShape
from ...workloads.ycsb import YCSB_BA, YCSB_RO
from ..reporting import ExperimentResult
from .common import Cell, effort

SHAPE = HierarchyShape(dram_gb=4.0, nvm_gb=16.0, ssd_gb=100.0)
DB_GB = 50.0
POLICIES = ("clock", "lru", "fifo")


def cells(quick: bool) -> dict:
    return {
        (mix.name, replacement): Cell.ycsb(
            f"{mix.name}/{replacement}", SHAPE, SPITFIRE_LAZY, mix.name,
            DB_GB, skew=0.6, effort=effort(quick),
            bm_config=BufferManagerConfig(replacement=replacement))
        for mix in (YCSB_RO, YCSB_BA) for replacement in POLICIES
    }


def reduce(quick: bool, runs: dict) -> ExperimentResult:
    result = ExperimentResult(
        "replacement", "Replacement-Policy Ablation (CLOCK vs LRU vs FIFO)"
    )
    result.metadata.update(dram_gb=SHAPE.dram_gb, nvm_gb=SHAPE.nvm_gb,
                           db_gb=DB_GB, skew=0.6)
    for mix in (YCSB_RO, YCSB_BA):
        series = result.new_series(mix.name)
        for replacement in POLICIES:
            series.add(replacement, runs[(mix.name, replacement)].throughput)
    for mix_name, series in result.series.items():
        clock_vs_lru = series.y_at("clock") / series.y_at("lru")
        clock_vs_fifo = series.y_at("clock") / series.y_at("fifo")
        result.note(
            f"{mix_name}: CLOCK/LRU = {clock_vs_lru:.2f}x, "
            f"CLOCK/FIFO = {clock_vs_fifo:.2f}x"
        )
    return result
