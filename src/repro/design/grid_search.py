"""Storage-system design by grid search (§5.3, §6.6 / Fig. 14).

Given a target workload and a set of candidate per-tier capacities, run
the workload on every candidate hierarchy, compute each hierarchy's
dollar cost (Table 1 prices), and rank candidates by performance/price
(operations per second per dollar).  Two-tier candidates (DRAM-SSD,
NVM-SSD) fall out naturally as grid points with a zero-capacity tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..core.buffer_manager import BufferManager, BufferManagerConfig
from ..core.policy import (
    DRAM_SSD_POLICY,
    MigrationPolicy,
    NVM_SSD_POLICY,
    SPITFIRE_LAZY,
)
from ..hardware.cost_model import StorageHierarchy
from ..hardware.pricing import HierarchyShape, hierarchy_cost, performance_per_price
from ..hardware.specs import SimulationScale

#: The paper's Fig. 14 grid axes.
FIG14_DRAM_SIZES_GB = (0.0, 4.0, 8.0, 16.0, 32.0)
FIG14_NVM_SIZES_GB = (0.0, 40.0, 80.0, 160.0)
FIG14_SSD_GB = 200.0


@dataclass
class DesignPoint:
    """One evaluated hierarchy candidate."""

    shape: HierarchyShape
    cost_dollars: float
    throughput: float
    perf_per_price: float

    @property
    def label(self) -> str:
        return self.shape.label


@dataclass
class DesignResult:
    """Outcome of one grid search."""

    workload_name: str
    points: list[DesignPoint] = field(default_factory=list)

    def best(self, budget_dollars: float | None = None) -> DesignPoint:
        """Highest perf/price point, optionally under a cost budget."""
        candidates = self.points
        if budget_dollars is not None:
            candidates = [p for p in candidates if p.cost_dollars <= budget_dollars]
        if not candidates:
            raise ValueError("no candidate hierarchy fits the budget")
        return max(candidates, key=lambda p: p.perf_per_price)

    def grid(self, metric: str = "perf_per_price") -> dict[tuple[float, float], float]:
        """(dram_gb, nvm_gb) → metric value, for heat-map rendering."""
        return {(p.shape.dram_gb, p.shape.nvm_gb): getattr(p, metric)
                for p in self.points}

    def point(self, dram_gb: float, nvm_gb: float) -> DesignPoint:
        for p in self.points:
            if p.shape.dram_gb == dram_gb and p.shape.nvm_gb == nvm_gb:
                return p
        raise KeyError(f"no grid point ({dram_gb}, {nvm_gb})")

    def render_heatmap(self, metric: str = "perf_per_price",
                       value_format: str = "{:>10.0f}") -> str:
        """A Fig. 14-style text heat map: DRAM rows × NVM columns.

        The best cell is marked with ``*`` — the paper highlights the
        winning hierarchy of each grid the same way.
        """
        grid = self.grid(metric)
        dram_sizes = sorted({dram for dram, _ in grid})
        nvm_sizes = sorted({nvm for _, nvm in grid})
        best_cell = max(grid, key=grid.get)
        lines = [f"{self.workload_name} — {metric}"]
        header = "DRAM\\NVM" + "".join(f"{f'{n:g} GB':>11}" for n in nvm_sizes)
        lines.append(header)
        for dram in dram_sizes:
            row = f"{dram:>5g} GB "
            for nvm in nvm_sizes:
                if (dram, nvm) in grid:
                    cell = value_format.format(grid[(dram, nvm)])
                    marker = "*" if (dram, nvm) == best_cell else " "
                    row += cell + marker
                else:
                    row += " " * 11
            lines.append(row)
        return "\n".join(lines)


def policy_for_shape(shape: HierarchyShape) -> MigrationPolicy:
    """The paper's policy choice per hierarchy class (§6.6 setup)."""
    has_dram = shape.dram_gb > 0
    has_nvm = shape.nvm_gb > 0
    if has_dram and has_nvm:
        return SPITFIRE_LAZY
    if has_nvm:
        return NVM_SSD_POLICY
    return DRAM_SSD_POLICY


def enumerate_shapes(
    dram_sizes_gb: tuple[float, ...] = FIG14_DRAM_SIZES_GB,
    nvm_sizes_gb: tuple[float, ...] = FIG14_NVM_SIZES_GB,
    ssd_gb: float = FIG14_SSD_GB,
) -> list[HierarchyShape]:
    """All grid hierarchies; the buffer-less corner is skipped."""
    return [
        HierarchyShape(dram_gb, nvm_gb, ssd_gb)
        for dram_gb in dram_sizes_gb
        for nvm_gb in nvm_sizes_gb
        if dram_gb or nvm_gb
    ]


def grid_search(
    workload_name: str,
    evaluate: Callable[[StorageHierarchy, BufferManager], float] | None = None,
    shapes: list[HierarchyShape] | None = None,
    scale: SimulationScale | None = None,
    bm_config: BufferManagerConfig | None = None,
    policy_chooser: Callable[[HierarchyShape], MigrationPolicy] = policy_for_shape,
    *,
    cell_factory: Callable[[HierarchyShape, MigrationPolicy], "object"] | None = None,
    jobs: int = 1,
) -> DesignResult:
    """Evaluate every candidate hierarchy and rank by perf/price.

    Two evaluation modes:

    * ``evaluate`` (legacy, serial): receives a fresh hierarchy + buffer
      manager and must return the measured throughput in ops/sec.
    * ``cell_factory`` (parallel-capable): receives a shape and the
      policy ``policy_chooser`` picks for it, and must return a
      :class:`repro.bench.executor.Cell`.  All cells run through
      :func:`repro.bench.executor.run_cells` with ``jobs`` workers.
    """
    if (evaluate is None) == (cell_factory is None):
        raise TypeError("pass exactly one of evaluate= or cell_factory=")
    result = DesignResult(workload_name)
    shapes = list(shapes or enumerate_shapes())
    if cell_factory is not None:
        # Deferred import: the bench package imports this module.
        from ..bench.executor import run_cells

        cells = [cell_factory(shape, policy_chooser(shape)) for shape in shapes]
        runs = run_cells(cells, jobs=jobs)
        for shape, res in zip(shapes, runs):
            cost = hierarchy_cost(shape)
            result.points.append(
                DesignPoint(
                    shape=shape,
                    cost_dollars=cost,
                    throughput=res.throughput,
                    perf_per_price=performance_per_price(res.throughput, cost),
                )
            )
        return result
    for shape in shapes:
        hierarchy = (
            StorageHierarchy(shape, scale)
            if scale is not None
            else StorageHierarchy(shape)
        )
        bm = BufferManager(hierarchy, policy_chooser(shape), bm_config)
        throughput = evaluate(hierarchy, bm)
        cost = hierarchy_cost(shape, hierarchy.specs)
        result.points.append(
            DesignPoint(
                shape=shape,
                cost_dollars=cost,
                throughput=throughput,
                perf_per_price=performance_per_price(throughput, cost),
            )
        )
    return result
