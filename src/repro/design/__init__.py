"""Storage-system design: perf/price grid search over hierarchies (§6.6).

The one package root that imports its submodule: it re-exports a
function named like that submodule (``grid_search``), and a lazy table
would hand back the module instead once the submodule is imported.
Nothing on a start-up path imports this package.
"""

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
