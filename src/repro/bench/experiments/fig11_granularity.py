"""Fig. 11 — Optimal granularity for loading data on NVM (§6.5).

Runs HyMem (eager DRAM migration, fine-grained loading enabled) on
YCSB-RO with the loading unit swept over 64/128/256/512 B on the §6.5
hierarchy (8 GB DRAM + 32 GB NVM, ~20 GB database).

Expected shape: throughput peaks at the 256 B Optane media granularity.
Loading at 64 B amplifies every transfer to a 256 B media block (4x the
traffic); loading at 512 B moves data the access never touches.
"""

from __future__ import annotations

from ...core.buffer_manager import BufferManagerConfig
from ...core.policy import HYMEM_POLICY
from ...pages.granularity import FIG11_GRANULARITIES, LoadingUnit
from ..reporting import ExperimentResult
from .common import HYMEM_DB_GB, HYMEM_SHAPE, Cell, effort

WORKERS = 16


def cells(quick: bool) -> dict:
    # The HyMem configuration of make_hymem, fine-grained without mini
    # pages, with the loading unit under test.
    return {
        granularity: Cell.ycsb(
            f"HyMem/{granularity}B", HYMEM_SHAPE, HYMEM_POLICY, "YCSB-RO",
            HYMEM_DB_GB, effort=effort(quick),
            bm_config=BufferManagerConfig(
                fine_grained=True, mini_pages=False,
                loading_unit=LoadingUnit(granularity)))
        for granularity in FIG11_GRANULARITIES
    }


def reduce(quick: bool, runs: dict) -> ExperimentResult:
    result = ExperimentResult(
        "fig11", "Optimal Granularity for Loading Data on NVM (YCSB-RO)"
    )
    result.metadata.update(
        dram_gb=HYMEM_SHAPE.dram_gb, nvm_gb=HYMEM_SHAPE.nvm_gb,
        db_gb=HYMEM_DB_GB, workers=WORKERS,
    )
    series = result.new_series("HyMem")
    for granularity in FIG11_GRANULARITIES:
        series.add(granularity, runs[granularity].throughput_at(WORKERS))
    result.note(
        f"throughput peaks at {series.peak_x} B "
        f"(the Optane media access granularity is 256 B)"
    )
    result.note(
        f"64 B vs 256 B: {series.y_at(256) / series.y_at(64):.2f}x "
        "(the paper reports ~1.1x)"
    )
    return result
