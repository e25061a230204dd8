"""Shared builders for the per-figure experiment modules.

Each experiment constructs hierarchies/buffer managers through these
helpers so that protocol choices (warm-up, priming, WAL, scaling) are
consistent across figures, exactly as the paper uses one platform and
measurement protocol for its whole evaluation section.
"""

from __future__ import annotations

from ...core.buffer_manager import BufferManager, BufferManagerConfig
from ...core.policy import MigrationPolicy
from ...hardware.cost_model import StorageHierarchy
from ...hardware.pricing import HierarchyShape
from ...hardware.specs import DEFAULT_SCALE, SimulationScale
from ..executor import (  # noqa: F401  (re-exported for callers/tests)
    FULL,
    QUICK,
    Cell,
    CellBatch,
    Effort,
    effort,
    run_cells,
    run_session,
    run_tasks,
)

#: Coarser scale for the large-database experiments (Figs. 5, 14, 15)
#: so that 300 GB-class configurations stay fast.
COARSE_SCALE = SimulationScale(pages_per_gb=16)


def build_bm(
    shape: HierarchyShape,
    policy: MigrationPolicy,
    scale: SimulationScale = DEFAULT_SCALE,
    bm_config: BufferManagerConfig | None = None,
    memory_mode: bool = False,
    seed: int = 42,
) -> BufferManager:
    """A fresh hierarchy + buffer manager for one run."""
    hierarchy = StorageHierarchy(shape, scale, memory_mode=memory_mode)
    if bm_config is None:
        bm_config = BufferManagerConfig(seed=seed)
    return BufferManager(hierarchy, policy, bm_config)


#: The probability levels swept by the policy experiments (Figs. 6-9).
SWEEP_PROBS = (0.0, 0.01, 0.1, 1.0)

#: The §6.3 hierarchy: 12.5 GB DRAM + 50 GB NVM over SSD.
POLICY_SHAPE = HierarchyShape(dram_gb=12.5, nvm_gb=50.0, ssd_gb=200.0)

#: The §6.5 hierarchy: 8 GB DRAM + 32 GB NVM over SSD, ~20 GB database.
HYMEM_SHAPE = HierarchyShape(dram_gb=8.0, nvm_gb=32.0, ssd_gb=100.0)
HYMEM_DB_GB = 20.0

#: §6.3's database: 100 GB YCSB / TPC-C.
POLICY_DB_GB = 100.0
