"""repro — a Python reproduction of Spitfire (SIGMOD '21).

Spitfire is a multi-threaded, three-tier buffer manager for
DRAM + NVM + SSD storage hierarchies.  This package reproduces the full
system as a discrete cost-model simulation plus a functionally complete
buffer manager, storage engine, and benchmark suite.

Quick start::

    from repro import (
        BufferManager, HierarchyShape, SPITFIRE_LAZY, StorageHierarchy,
    )

    hierarchy = StorageHierarchy(HierarchyShape(dram_gb=2, nvm_gb=8, ssd_gb=50))
    bm = BufferManager(hierarchy, SPITFIRE_LAZY)
    page = bm.allocate_page()
    bm.write(page, offset=0, nbytes=100)
    bm.read(page, offset=0, nbytes=1024)
"""

from .core import (
    AccessResult,
    BufferManager,
    BufferManagerConfig,
    BufferStats,
    DRAM_SSD_POLICY,
    EventBus,
    EventType,
    HYMEM_POLICY,
    MigrationEngine,
    MigrationPolicy,
    NVM_SSD_POLICY,
    POLICY_PRESETS,
    SPITFIRE_EAGER,
    SPITFIRE_LAZY,
    NvmAdmission,
    TierChain,
    TierNode,
    inclusivity_ratio,
    make_hymem,
)
from .engine import EngineConfig, StorageEngine
from .hardware import (
    DEFAULT_SCALE,
    HierarchyShape,
    SimulationScale,
    StorageHierarchy,
    Tier,
    hierarchy_cost,
    performance_per_price,
)
from .tuning import AdaptiveController, AnnealingSchedule, PolicyAnnealer
from .workloads import TpccWorkload, YCSB_BA, YCSB_RO, YCSB_WH, YcsbWorkload

__version__ = "1.0.0"

__all__ = [
    "AccessResult",
    "AdaptiveController",
    "AnnealingSchedule",
    "BufferManager",
    "BufferManagerConfig",
    "BufferStats",
    "DEFAULT_SCALE",
    "DRAM_SSD_POLICY",
    "EngineConfig",
    "EventBus",
    "EventType",
    "HierarchyShape",
    "HYMEM_POLICY",
    "MigrationEngine",
    "MigrationPolicy",
    "NVM_SSD_POLICY",
    "NvmAdmission",
    "POLICY_PRESETS",
    "PolicyAnnealer",
    "SimulationScale",
    "SPITFIRE_EAGER",
    "SPITFIRE_LAZY",
    "StorageEngine",
    "StorageHierarchy",
    "Tier",
    "TierChain",
    "TierNode",
    "TpccWorkload",
    "YCSB_BA",
    "YCSB_RO",
    "YCSB_WH",
    "YcsbWorkload",
    "hierarchy_cost",
    "inclusivity_ratio",
    "make_hymem",
    "performance_per_price",
    "__version__",
]
