"""Storage-system design: perf/price grid search over hierarchies (§6.6)."""

from .grid_search import (
    FIG14_DRAM_SIZES_GB,
    FIG14_NVM_SIZES_GB,
    FIG14_SSD_GB,
    DesignPoint,
    DesignResult,
    enumerate_shapes,
    grid_search,
    policy_for_shape,
)

__all__ = [
    "DesignPoint",
    "DesignResult",
    "FIG14_DRAM_SIZES_GB",
    "FIG14_NVM_SIZES_GB",
    "FIG14_SSD_GB",
    "enumerate_shapes",
    "grid_search",
    "policy_for_shape",
]
