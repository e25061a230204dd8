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

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "core": (
        "AccessResult", "BufferManager", "BufferManagerConfig",
        "BufferStats", "DRAM_SSD_POLICY", "EventBus", "EventType",
        "HYMEM_POLICY", "MigrationEngine", "MigrationPolicy",
        "NVM_SSD_POLICY", "POLICY_PRESETS", "SPITFIRE_EAGER",
        "SPITFIRE_LAZY", "NvmAdmission", "TierChain", "TierNode",
        "inclusivity_ratio", "make_hymem",
    ),
    "engine": ("EngineConfig", "StorageEngine"),
    "hardware": (
        "DEFAULT_SCALE", "HierarchyShape", "SimulationScale",
        "StorageHierarchy", "Tier", "hierarchy_cost",
        "performance_per_price",
    ),
    "tuning": ("AdaptiveController", "PolicyAnnealer"),
    "workloads": ("TpccWorkload", "YCSB_BA", "YCSB_RO", "YCSB_WH",
                  "YcsbWorkload"),
})
__all__.append("__version__")
