"""Fig. 8 — Impact of bypassing NVM on writes to NVM (§6.3).

Measures the NVM media write volume while sweeping ``N`` (with D = 1)
on the YCSB mixes.

Expected shape: write volume grows with N everywhere; the relative
reduction from eager to lazy is largest on the read-only mix (the paper
reports 91.8x between N = 1 and N = 0.1 on YCSB-RO, versus only
1.3-1.6x on the write-heavy mixes, because updates must reach NVM
regardless).
"""

from __future__ import annotations

from ..reporting import ExperimentResult
from .common import (
    POLICY_DB_GB,
    POLICY_SHAPE,
    SWEEP_PROBS,
    effort,
    policy_sweep,
)

WORKLOADS = ("YCSB-RO", "YCSB-BA", "YCSB-WH")


def cells(quick: bool) -> dict:
    return policy_sweep("N", WORKLOADS, effort(quick))


def reduce(quick: bool, runs: dict) -> ExperimentResult:
    result = ExperimentResult(
        "fig8", "Impact of Bypassing NVM on Writes to NVM (write volume, GB)"
    )
    result.metadata.update(
        dram_gb=POLICY_SHAPE.dram_gb, nvm_gb=POLICY_SHAPE.nvm_gb,
        db_gb=POLICY_DB_GB, measure_ops=effort(quick).measure_ops,
    )
    for workload in WORKLOADS:
        series = result.new_series(workload)
        for n in SWEEP_PROBS:
            series.add(n, runs[("N", workload, n)].nvm_write_gb)
    for workload in WORKLOADS:
        series = result.series[workload]
        lazy = max(series.y_at(0.1), 1e-9)
        result.note(
            f"{workload}: eager/lazy(N=0.1) write volume = "
            f"{series.y_at(1.0) / lazy:.1f}x"
        )
    return result
