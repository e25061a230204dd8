"""Simulated storage hardware: device specs, cost model, memory mode.

This package is the substitute for the paper's Optane evaluation platform.
It models DRAM, Optane DC PMMs, and an Optane SSD with the latency,
bandwidth, media-granularity, price, and endurance characteristics of
Table 1, and converts access traces into simulated throughput via a
multi-worker saturation analysis.
"""

from .cost_model import DEFAULT_CPU_COSTS, CpuCosts, StorageHierarchy
from .device import Device, DeviceCounters, cpu_charge
from .memory_mode import MemoryModeDevice, MemoryModeStats
from .pricing import (
    HierarchyShape,
    equi_cost_nvm_gb,
    hierarchy_cost,
    performance_per_price,
)
from .simclock import CostAccumulator, ResourceUsage, SimClock
from .specs import (
    BUFFER_TIER_ORDER,
    CACHE_LINE_SIZE,
    CACHE_LINES_PER_PAGE,
    DEFAULT_SCALE,
    DEFAULT_SPECS,
    DRAM_SPEC,
    GIB,
    KIB,
    MIB,
    NVM_MEDIA_GRANULARITY,
    NVM_SPEC,
    PAGE_SIZE,
    SSD_SPEC,
    TIER_ORDER,
    Addressability,
    DeviceSpec,
    SimulationScale,
    Tier,
)

__all__ = [
    "Addressability",
    "BUFFER_TIER_ORDER",
    "CACHE_LINES_PER_PAGE",
    "CACHE_LINE_SIZE",
    "CostAccumulator",
    "CpuCosts",
    "DEFAULT_CPU_COSTS",
    "DEFAULT_SCALE",
    "DEFAULT_SPECS",
    "DRAM_SPEC",
    "Device",
    "DeviceCounters",
    "DeviceSpec",
    "GIB",
    "HierarchyShape",
    "KIB",
    "MIB",
    "MemoryModeDevice",
    "MemoryModeStats",
    "NVM_MEDIA_GRANULARITY",
    "NVM_SPEC",
    "PAGE_SIZE",
    "ResourceUsage",
    "SSD_SPEC",
    "SimClock",
    "SimulationScale",
    "StorageHierarchy",
    "TIER_ORDER",
    "Tier",
    "cpu_charge",
    "equi_cost_nvm_gb",
    "hierarchy_cost",
    "performance_per_price",
]
