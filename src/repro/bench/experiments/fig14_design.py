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

from ...design.grid_search import FIG14_WORKERS, enumerate_shapes, grid_search
from ...hardware.pricing import hierarchy_cost
from ..reporting import ExperimentResult
from .common import COARSE_SCALE, Cell, effort

DB_GB = 100.0
SKEW = 0.5
WORKLOADS = ("YCSB-RO", "YCSB-BA", "YCSB-WH")


def run(quick: bool = True, jobs: int = 1) -> ExperimentResult:
    eff = effort(quick)
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

        def cell_factory(shape, policy, _workload=workload):
            return Cell.ycsb(f"{_workload}/{shape.label}", shape, policy,
                             _workload, DB_GB, skew=SKEW, effort=eff,
                             scale=COARSE_SCALE)

        search = grid_search(workload, cell_factory, shapes=shapes,
                             jobs=jobs)
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
