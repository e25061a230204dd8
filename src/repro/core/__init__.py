"""Spitfire's core: migration policies, descriptors, and the buffer manager.

The buffer manager itself is a facade over a four-component core —
:class:`~repro.core.access_path.AccessPath` (the read/write chain
walk), :class:`~repro.core.fine_grained.FineGrainedOps` (cache-line /
mini-page layouts), :class:`~repro.core.space_manager.SpaceManager`
(eviction and reclamation), and
:class:`~repro.core.flush_engine.FlushEngine` (write-back and
crash/recovery) — wired over the tier chain, migration engine, and
event bus.
"""

from .access_path import AccessPath
from .admission import AdmissionQueue, recommended_queue_size
from .analysis import (
    accesses_for_confidence,
    expected_accesses_to_promotion,
    expected_dram_fraction,
    promotion_half_life,
    promotion_probability,
)
from .buffer_manager import (
    AccessResult,
    BufferFullError,
    BufferManager,
    BufferManagerConfig,
    BufferPool,
)
from .descriptors import SharedPageDescriptor, TierPageDescriptor
from .events import EventBus, EventType
from .fine_grained import FineGrainedOps
from .flush_engine import FlushEngine
from .hymem import make_hymem
from .mapping_table import MappingTable
from .migration import Edge, MigrationEngine, MigrationOp
from .policy import (
    DRAM_SSD_POLICY,
    HYMEM_POLICY,
    NVM_SSD_POLICY,
    POLICY_PRESETS,
    SPITFIRE_EAGER,
    SPITFIRE_LAZY,
    MigrationPolicy,
    NvmAdmission,
    PolicySlot,
)
from .space_manager import SpaceManager
from .ssd_store import SsdStore
from .stats import BufferStats, InclusivitySample, InclusivityTracker, inclusivity_ratio
from .tenancy import QuotaMode, TenancyConfig, TenancyControl, TenantRegistry
from .tier_chain import TierChain, TierNode

__all__ = [
    "AccessPath",
    "AccessResult",
    "AdmissionQueue",
    "accesses_for_confidence",
    "expected_accesses_to_promotion",
    "expected_dram_fraction",
    "promotion_half_life",
    "promotion_probability",
    "BufferFullError",
    "BufferManager",
    "BufferManagerConfig",
    "BufferPool",
    "BufferStats",
    "DRAM_SSD_POLICY",
    "Edge",
    "EventBus",
    "EventType",
    "FineGrainedOps",
    "FlushEngine",
    "HYMEM_POLICY",
    "InclusivitySample",
    "InclusivityTracker",
    "MappingTable",
    "MigrationEngine",
    "MigrationOp",
    "MigrationPolicy",
    "NVM_SSD_POLICY",
    "NvmAdmission",
    "POLICY_PRESETS",
    "PolicySlot",
    "QuotaMode",
    "SPITFIRE_EAGER",
    "SPITFIRE_LAZY",
    "SharedPageDescriptor",
    "SpaceManager",
    "SsdStore",
    "TenancyConfig",
    "TenancyControl",
    "TenantRegistry",
    "TierChain",
    "TierNode",
    "TierPageDescriptor",
    "inclusivity_ratio",
    "make_hymem",
    "recommended_queue_size",
]
