"""Fig. 14 — Storage system design (§6.6).

Grid-searches DRAM ∈ {0, 4, 8, 16, 32} GB x NVM ∈ {0, 40, 80, 160} GB
over a 200 GB SSD, running each candidate with the policy the paper
assigns to its class (Spitfire-Lazy for three-tier, the native policy
for two-tier), on a 100 GB database with skew 0.5 and 8 workers, and
ranks by performance/price.

Expected shape: (a) the cost grid is linear in the device prices;
(b) read-only favours a small-DRAM + large-NVM three-tier hierarchy;
(c) balanced favours 8 GB DRAM + 80 GB NVM with NVM-SSD close behind;
(d) write-heavy's best perf/price point is the NVM-SSD hierarchy.
"""

from __future__ import annotations

from ...design.grid_search import (
    FIG14_WORKERS,
    enumerate_shapes,
    policy_for_shape,
    rank_designs,
)
from ...hardware.pricing import hierarchy_cost
from ..reporting import ExperimentResult
from .common import COARSE_SCALE, Cell, effort

DB_GB = 100.0
SKEW = 0.5
WORKLOADS = ("YCSB-RO", "YCSB-BA", "YCSB-WH")


def cells(quick: bool) -> dict:
    return {
        (workload, shape): Cell.ycsb(
            f"{workload}/{shape.label}", shape, policy_for_shape(shape),
            workload, DB_GB, skew=SKEW, effort=effort(quick),
            scale=COARSE_SCALE)
        for workload in WORKLOADS for shape in enumerate_shapes()
    }


def reduce(quick: bool, runs: dict) -> ExperimentResult:
    result = ExperimentResult(
        "fig14", "Storage System Design (perf/price grid search)"
    )
    result.metadata.update(db_gb=DB_GB, skew=SKEW, workers=FIG14_WORKERS)
    shapes = enumerate_shapes()

    # (a) the cost grid, straight from Table 1 prices.
    cost_series = result.new_series("cost ($)")
    for shape in shapes:
        cost_series.add(f"D{shape.dram_gb:g}/N{shape.nvm_gb:g}",
                        hierarchy_cost(shape))

    for workload in WORKLOADS:
        search = rank_designs(workload, [(shape, runs[(workload, shape)])
                                         for shape in shapes])
        series = result.new_series(f"{workload} (ops/s/$)")
        for point in search.points:
            series.add(
                f"D{point.shape.dram_gb:g}/N{point.shape.nvm_gb:g}",
                point.perf_per_price,
            )
        best = search.best()
        result.note(
            f"{workload}: best perf/price at DRAM={best.shape.dram_gb:g} GB, "
            f"NVM={best.shape.nvm_gb:g} GB ({best.label}) — "
            f"{best.perf_per_price:.0f} ops/s/$"
        )
    return result
