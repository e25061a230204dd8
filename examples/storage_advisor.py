#!/usr/bin/env python3
"""Storage-system design advisor (§5.3, §6.6).

Given a workload profile and a dollar budget, grid-search candidate
DRAM/NVM/SSD hierarchies (running each candidate with the policy the
paper assigns to its class) and recommend the configuration with the
best performance/price — the decision procedure behind Fig. 14.

Run:  python examples/storage_advisor.py [budget_dollars]
"""

import sys

from repro.bench.executor import Cell, Effort
from repro.design.grid_search import FIG14_WORKERS, enumerate_shapes, grid_search
from repro.hardware.specs import SimulationScale

DB_GB = 100.0
SCALE = SimulationScale(pages_per_gb=16)


def main() -> None:
    budget = float(sys.argv[1]) if len(sys.argv) > 1 else 1_000.0

    def cell_factory(shape, policy):
        return Cell.ycsb(f"YCSB-WH/{shape.label}", shape, policy, "YCSB-WH",
                         DB_GB, skew=0.5, effort=Effort(4_000, 8_000),
                         scale=SCALE)

    shapes = enumerate_shapes(
        dram_sizes_gb=(0.0, 4.0, 8.0, 32.0),
        nvm_sizes_gb=(0.0, 40.0, 80.0, 160.0),
        ssd_gb=200.0,
    )
    print(f"Evaluating {len(shapes)} candidate hierarchies on YCSB-WH "
          f"({DB_GB:.0f} GB database, {FIG14_WORKERS} workers)...\n")
    result = grid_search("YCSB-WH", cell_factory, shapes=shapes)

    header = (f"{'hierarchy':<14} {'DRAM':>6} {'NVM':>6} {'cost $':>8} "
              f"{'kOps/s':>9} {'ops/s/$':>9}")
    print(header)
    print("-" * len(header))
    for point in sorted(result.points, key=lambda p: -p.perf_per_price):
        print(f"{point.label:<14} {point.shape.dram_gb:>6.0f} "
              f"{point.shape.nvm_gb:>6.0f} {point.cost_dollars:>8.0f} "
              f"{point.throughput / 1e3:>9.1f} {point.perf_per_price:>9.1f}")

    print()
    print(result.render_heatmap())

    best = result.best()
    print(f"\nbest overall perf/price: {best.label} "
          f"(DRAM {best.shape.dram_gb:.0f} GB, NVM {best.shape.nvm_gb:.0f} GB)")
    try:
        affordable = result.best(budget_dollars=budget)
        print(f"best under ${budget:.0f}: {affordable.label} "
              f"(DRAM {affordable.shape.dram_gb:.0f} GB, "
              f"NVM {affordable.shape.nvm_gb:.0f} GB, "
              f"${affordable.cost_dollars:.0f})")
    except ValueError:
        print(f"no candidate hierarchy fits a ${budget:.0f} budget")
    print("\nPaper guideline (§6.6): write-intensive workloads favour the "
          "NVM-SSD hierarchy —\nno DRAM tier means no dirty-page flushing "
          "for the recovery protocol.")


if __name__ == "__main__":
    main()
