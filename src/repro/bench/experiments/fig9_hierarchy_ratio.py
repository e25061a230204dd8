"""Fig. 9 — Impact of the storage hierarchy on the optimal policy (§6.3).

Fixes a 10 GB NVM buffer and varies the DRAM buffer over 1.25 / 2.5 /
5 GB (DRAM:NVM ratios 1:8, 1:4, 1:2), sweeping D on YCSB-RO.

Expected shape: at 1:8 the tiny DRAM buffer is not worth its migration
churn, so the optimal D collapses toward 0; as the ratio grows to 1:2
a lazy non-zero D (0.01) wins by keeping hot pages in DRAM with low
inclusivity.
"""

from __future__ import annotations

from ...core.policy import MigrationPolicy
from ...hardware.pricing import HierarchyShape
from ..reporting import ExperimentResult
from .common import SWEEP_PROBS, Cell, effort

NVM_GB = 10.0
DRAM_SIZES = (1.25, 2.5, 5.0)
DB_GB = 40.0


def cells(quick: bool) -> dict:
    return {
        (dram_gb, d): Cell.ycsb(
            f"dram={dram_gb:g}/D={d}",
            HierarchyShape(dram_gb=dram_gb, nvm_gb=NVM_GB, ssd_gb=100.0),
            MigrationPolicy(d_r=d, d_w=d, n_r=1.0, n_w=1.0),
            "YCSB-RO", DB_GB, effort=effort(quick))
        for dram_gb in DRAM_SIZES for d in SWEEP_PROBS
    }


def reduce(quick: bool, runs: dict) -> ExperimentResult:
    result = ExperimentResult(
        "fig9", "Impact of Storage Hierarchy (D sweep per DRAM:NVM ratio)"
    )
    result.metadata.update(nvm_gb=NVM_GB, db_gb=DB_GB, workload="YCSB-RO")
    for dram_gb in DRAM_SIZES:
        ratio = int(round(NVM_GB / dram_gb))
        series = result.new_series(f"1:{ratio}")
        for d in SWEEP_PROBS:
            series.add(d, runs[(dram_gb, d)].throughput)
    for label, series in result.series.items():
        result.note(f"ratio {label}: optimal D = {series.peak_x}")
    return result
