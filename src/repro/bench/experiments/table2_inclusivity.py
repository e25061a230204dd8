"""Table 2 — Inclusivity ratio of the DRAM & NVM buffers (§3.3, §6.3).

Measures the duplication between the DRAM and NVM buffers while
sweeping D (with N = 1) and N (with D = 1), for all four workloads.

Expected shape per the paper: the ratio is 0 at probability 0, grows
monotonically with the migration probability, and lazy policies keep it
well below the eager policy's (which lands near the DRAM:union capacity
ratio, ~0.25 for the 12.5/50 GB hierarchy).
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
    return policy_sweep("DN", WORKLOADS, effort(quick))


def reduce(quick: bool, runs: dict) -> ExperimentResult:
    result = ExperimentResult(
        "table2", "Inclusivity Ratio of DRAM & NVM Buffers"
    )
    result.metadata.update(
        dram_gb=POLICY_SHAPE.dram_gb, nvm_gb=POLICY_SHAPE.nvm_gb,
        db_gb=POLICY_DB_GB,
    )
    for workload in WORKLOADS:
        series = result.new_series(f"Bypassing DRAM (D)/{workload}")
        for d in SWEEP_PROBS:
            series.add(d, runs[("D", workload, d)].inclusivity)
    for workload in WORKLOADS:
        series = result.new_series(f"Bypassing NVM (N)/{workload}")
        for n in SWEEP_PROBS:
            series.add(n, runs[("N", workload, n)].inclusivity)
    result.note("lower non-zero values are better (less duplication)")
    return result
