"""Simulated storage hardware: device specs, cost model, memory mode.

This package is the substitute for the paper's Optane evaluation platform.
It models DRAM, Optane DC PMMs, and an Optane SSD with the latency,
bandwidth, media-granularity, price, and endurance characteristics of
Table 1, and converts access traces into simulated throughput via a
multi-worker saturation analysis.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "cost_model": ("DEFAULT_CPU_COSTS", "CpuCosts", "StorageHierarchy"),
    "device": ("Device", "DeviceCounters"),
    "memory_mode": ("MemoryModeDevice", "MemoryModeStats"),
    "pricing": ("HierarchyShape", "hierarchy_cost", "performance_per_price"),
    "simclock": ("CostAccumulator", "ResourceUsage"),
    "specs": (
        "BUFFER_TIER_ORDER", "CACHE_LINE_SIZE", "CACHE_LINES_PER_PAGE",
        "DEFAULT_SCALE", "DEFAULT_SPECS", "DRAM_SPEC", "GIB", "KIB", "MIB",
        "NVM_MEDIA_GRANULARITY", "NVM_SPEC", "PAGE_SIZE", "SSD_SPEC",
        "TIER_ORDER", "Addressability", "DeviceSpec", "SimulationScale",
        "Tier",
    ),
})
