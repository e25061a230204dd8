"""Fig. 7 — Performance impact of bypassing NVM (§6.3).

Sweeps the NVM migration probabilities ``N_r = N_w = N`` over
{0, 0.01, 0.1, 1} with an eager DRAM policy (D = 1) on the §6.3
hierarchy.

Expected shape: lazy N (0.01-0.1) beats eager N = 1 (1.25x on YCSB-RO
in the paper); N = 0 collapses because it forfeits the NVM buffer's
capacity entirely, and the collapse is much deeper with 16 workers
(the SSD saturates).
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
    return policy_sweep("N", WORKLOADS, effort(quick))


def reduce(quick: bool, runs: dict) -> ExperimentResult:
    result = ExperimentResult(
        "fig7", "Performance Impact of Bypassing NVM (N sweep, D=1)"
    )
    result.metadata.update(
        dram_gb=POLICY_SHAPE.dram_gb, nvm_gb=POLICY_SHAPE.nvm_gb,
        db_gb=POLICY_DB_GB,
    )
    for workload in WORKLOADS:
        one = result.new_series(f"{workload}/1w")
        sixteen = result.new_series(f"{workload}/16w")
        for n in SWEEP_PROBS:
            res = runs[("N", workload, n)]
            one.add(n, res.throughput)
            sixteen.add(n, res.throughput_at(16))
    for workload in WORKLOADS:
        one = result.series[f"{workload}/1w"]
        sixteen = result.series[f"{workload}/16w"]
        lazy = max(one.y_at(0.01), one.y_at(0.1))
        lazy16 = max(sixteen.y_at(0.01), sixteen.y_at(0.1))
        result.note(
            f"{workload}: lazy/eager={lazy / one.y_at(1.0):.2f}x (1w); "
            f"N=0 gap: {lazy / one.y_at(0.0):.2f}x (1w), "
            f"{lazy16 / sixteen.y_at(0.0):.2f}x (16w)"
        )
    return result
