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

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "access_path": ("AccessPath",),
    "admission": ("AdmissionQueue", "recommended_queue_size"),
    "analysis": (
        "accesses_for_confidence", "expected_accesses_to_promotion",
        "expected_dram_fraction", "promotion_half_life",
        "promotion_probability",
    ),
    "buffer_manager": ("AccessResult", "BufferFullError", "BufferManager",
                       "BufferManagerConfig", "BufferPool"),
    "descriptors": ("SharedPageDescriptor", "TierPageDescriptor"),
    "events": ("EventBus", "EventType"),
    "fine_grained": ("FineGrainedOps",),
    "flush_engine": ("FlushEngine",),
    "hymem": ("make_hymem",),
    "mapping_table": ("MappingTable",),
    "migration": ("Edge", "MigrationEngine", "MigrationOp"),
    "policy": (
        "DRAM_SSD_POLICY", "HYMEM_POLICY", "NVM_SSD_POLICY",
        "POLICY_PRESETS", "SPITFIRE_EAGER", "SPITFIRE_LAZY",
        "MigrationPolicy", "NvmAdmission", "PolicySlot",
    ),
    "space_manager": ("SpaceManager",),
    "ssd_store": ("SsdStore",),
    "stats": ("BufferStats", "InclusivitySample", "InclusivityTracker",
              "inclusivity_ratio"),
    "tenancy": ("QuotaMode", "TenancyConfig", "TenancyControl"),
    "tier_chain": ("TierChain", "TierNode"),
})
