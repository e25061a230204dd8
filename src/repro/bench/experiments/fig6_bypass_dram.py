"""Fig. 6 — Performance impact of bypassing DRAM (§6.3).

Sweeps the DRAM migration probabilities ``D_r = D_w = D`` over
{0, 0.01, 0.1, 1} with an eager NVM policy (N = 1) on the §6.3
hierarchy (12.5 GB DRAM + 50 GB NVM, 100 GB database).

Expected shape: throughput peaks at the lazy D = 0.01 (58% over eager
on YCSB-RO in the paper); D = 0 (DRAM disabled) drops ~20% below the
peak; the eager D = 1 is the worst of the non-zero settings.
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

WORKLOADS = ("YCSB-RO", "YCSB-BA", "YCSB-WH", "TPC-C")


def cells(quick: bool) -> dict:
    return policy_sweep("D", WORKLOADS, effort(quick))


def reduce(quick: bool, runs: dict) -> ExperimentResult:
    result = ExperimentResult(
        "fig6", "Performance Impact of Bypassing DRAM (D sweep, N=1)"
    )
    result.metadata.update(
        dram_gb=POLICY_SHAPE.dram_gb, nvm_gb=POLICY_SHAPE.nvm_gb,
        db_gb=POLICY_DB_GB,
    )
    for workload in WORKLOADS:
        one = result.new_series(f"{workload}/1w")
        sixteen = result.new_series(f"{workload}/16w")
        for d in SWEEP_PROBS:
            res = runs[("D", workload, d)]
            one.add(d, res.throughput)
            sixteen.add(d, res.throughput_at(16))
    for workload in WORKLOADS:
        series = result.series[f"{workload}/1w"]
        peak = max(series.ys)
        result.note(
            f"{workload}: peak at D={series.peak_x}, "
            f"peak/eager={peak / series.y_at(1.0):.2f}x, "
            f"D=0 at {series.y_at(0.0) / peak:.2f} of peak"
        )
    return result
