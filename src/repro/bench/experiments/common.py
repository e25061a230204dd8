"""Shared constants and cell builders for the per-figure experiment modules.

Each experiment declares its cells through these so that protocol
choices (hierarchies, database sizes, effort, scaling) are consistent
across figures, exactly as the paper uses one platform and measurement
protocol for its whole evaluation section.
"""

from __future__ import annotations

from ...core.policy import MigrationPolicy
from ...hardware.pricing import HierarchyShape
from ...hardware.specs import SimulationScale
from ..executor import FULL, QUICK, Cell, Effort, effort  # noqa: F401  (FULL, QUICK re-exported)

#: Coarser scale for the large-database experiments (Figs. 5, 14, 15)
#: so that 300 GB-class configurations stay fast.
COARSE_SCALE = SimulationScale(pages_per_gb=16)


#: The probability levels swept by the policy experiments (Figs. 6-9).
SWEEP_PROBS = (0.0, 0.01, 0.1, 1.0)

#: The §6.3 hierarchy: 12.5 GB DRAM + 50 GB NVM over SSD.
POLICY_SHAPE = HierarchyShape(dram_gb=12.5, nvm_gb=50.0, ssd_gb=200.0)

#: The §6.5 hierarchy: 8 GB DRAM + 32 GB NVM over SSD, ~20 GB database.
HYMEM_SHAPE = HierarchyShape(dram_gb=8.0, nvm_gb=32.0, ssd_gb=100.0)
HYMEM_DB_GB = 20.0

#: §6.3's database: 100 GB YCSB / TPC-C.
POLICY_DB_GB = 100.0


def sweep_cell(axis: str, workload: str, p: float, eff: Effort) -> Cell:
    """One point of §6.3's policy grid, the one Figs. 6-8 and Table 2 read.

    Axis ``"D"`` sets ``D_r = D_w = p`` with N = 1, axis ``"N"`` sets
    ``N_r = N_w = p`` with D = 1, on the §6.3 hierarchy and database.
    The cell is labelled ``"{workload}/{axis}={p}"``; its policy is
    unnamed, so a point is the same cell in every figure, the all-eager
    point is one cell on both axes, and a suite simulates each once.
    """
    d, n = (p, 1.0) if axis == "D" else (1.0, p)
    policy = MigrationPolicy(d_r=d, d_w=d, n_r=n, n_w=n)
    label = f"{workload}/{axis}={p}"
    if workload == "TPC-C":
        return Cell.tpcc(label, POLICY_SHAPE, policy, POLICY_DB_GB,
                         effort=eff)
    return Cell.ycsb(label, POLICY_SHAPE, policy, workload, POLICY_DB_GB,
                     effort=eff)


def policy_sweep(axes: str, workloads, eff: Effort) -> dict[tuple, Cell]:
    """§6.3's grid over :data:`SWEEP_PROBS` for every axis in ``axes``
    (``"D"``, ``"N"`` or ``"DN"``): ``{(axis, workload, p): Cell}``,
    declared axis by axis, workload by workload."""
    return {(axis, workload, p): sweep_cell(axis, workload, p, eff)
            for axis in axes for workload in workloads for p in SWEEP_PROBS}
