"""The Spitfire multi-tier buffer manager facade (§5 of the paper).

:class:`BufferManager` is configuration, wiring, and delegation over a
four-component core plus the three layers PR 1 extracted:

* a :class:`~repro.core.tier_chain.TierChain` of
  :class:`~repro.core.tier_chain.TierNode` objects (buffer pool + device
  + per-tier facts, ordered fastest-first) over an SSD store,
* a :class:`~repro.core.migration.MigrationEngine` that owns every
  probabilistic admission/bypass/write-back decision of §3's
  ``<D_r, D_w, N_r, N_w>`` policy tuple (and HyMem's admission queue),
* an :class:`~repro.core.events.EventBus` publishing one typed event
  (an :class:`~repro.core.events.EventType` and four fields) for every
  hit, miss, install, migration, eviction, write-back, and flush — to
  observers only (metrics hub, tracers, recorders, the adaptive
  controller, crash probes); a bare manager has none, because the
  components below count the paper's
  :class:`~repro.core.stats.BufferStats` themselves, through the
  chain's shared ``stats``,
* the :class:`~repro.core.access_path.AccessPath` — the read/write
  chain walk (§3.1–§3.4): hit scan, promotion climbs, SSD fetches,
  installs, and upward migrations,
* the :class:`~repro.core.fine_grained.FineGrainedOps` — HyMem's
  cache-line and mini-page serving, loading-cost model, and layout
  transitions (§2.1, Fig. 11/12),
* the :class:`~repro.core.space_manager.SpaceManager` — victim
  selection, eviction cascades, and the victim-cache admission of clean
  evictions (§3.4),
* the :class:`~repro.core.flush_engine.FlushEngine` — checkpoint
  flushing, partial-layout write-back, and crash/recovery (§5.2).

Each component takes its collaborators explicitly (no back-reference
into this facade for logic) and is independently constructible; the
facade preserves the original public API (`read`/`write`/`flush_*`/
`simulate_crash`/…) so `hymem.py`, the engine, the WAL, and the bench
harness are unaffected by the decomposition.

Costing: every device transfer is charged to the hierarchy's shared
:class:`~repro.hardware.simclock.CostAccumulator`; every bookkeeping
action charges CPU time.  The benchmark harness turns the accumulated
demands into simulated throughput.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..hardware.cost_model import StorageHierarchy
from ..hardware.memory_mode import MemoryModeDevice
from ..hardware.specs import CACHE_LINE_SIZE, Tier
from ..pages.granularity import OPTANE_LOADING_UNIT, LoadingUnit
from ..pages.mini_page import MINI_PAGE_BYTES
from ..pages.page import PageId
from .access_path import AccessPath, AccessResult
from .admission import AdmissionQueue, recommended_queue_size
from .batch_path import BatchAccessPath
from .descriptors import TierPageDescriptor, notify_unpin
from .events import EventBus
from .fine_grained import FineGrainedOps
from .flush_engine import FlushEngine
from .mapping_table import MappingTable
from .migration import MigrationEngine
from .policy import MigrationPolicy, NvmAdmission, PolicySlot
from .space_manager import SpaceManager
from .ssd_store import SsdStore
from .stats import BufferStats, InclusivityTracker
from .tenancy import TenancyConfig, TenancyControl
from .tier_chain import BufferFullError, BufferPool, TierChain

__all__ = [
    "AccessResult",
    "BufferFullError",
    "BufferManager",
    "BufferManagerConfig",
    "BufferPool",
]


@dataclass(frozen=True)
class BufferManagerConfig:
    """Static configuration of one buffer manager instance."""

    #: Replacement policy name ("clock", "lru", "fifo").
    replacement: str = "clock"
    #: Enable HyMem's cache-line-grained loading on the NVM→DRAM path.
    fine_grained: bool = False
    #: Granularity of fine-grained loads (Fig. 11 sweeps this).
    loading_unit: LoadingUnit = OPTANE_LOADING_UNIT
    #: Enable HyMem's mini-page layout for fine-grained DRAM pages.
    mini_pages: bool = False
    #: Admission-queue capacity; None derives §6.5's recommendation
    #: (half the NVM buffer's page count).
    admission_queue_size: int | None = None
    #: RNG seed for the policy's Bernoulli draws.
    seed: int = 42
    #: Multi-tenant layout and quota policy; None (the default) runs the
    #: classic single-tenant paths with no tenancy machinery built.
    tenancy: TenancyConfig | None = None

    def __post_init__(self) -> None:
        if self.mini_pages and not self.fine_grained:
            raise ValueError("mini_pages requires fine_grained loading")


class BufferManager:
    """Multi-tier buffer manager with probabilistic data migration.

    Parameters
    ----------
    hierarchy:
        Devices and cost accounting for this configuration.  Every
        buffer tier the hierarchy contains (DRAM, NVM) gets a chain
        node; the SSD tier (required) holds the database.
    policy:
        The migration policy ``<D_r, D_w, N_r, N_w>``.  May be swapped at
        runtime via :meth:`set_policy` (the adaptive tuner does this).
    config:
        Layout and replacement options.
    """

    def __init__(
        self,
        hierarchy: StorageHierarchy,
        policy: MigrationPolicy,
        config: BufferManagerConfig | None = None,
    ) -> None:
        if not hierarchy.has_tier(Tier.SSD):
            raise ValueError("the hierarchy must include an SSD tier for the database")
        self.hierarchy = hierarchy
        self.config = config or BufferManagerConfig()
        self.policy_slot = PolicySlot(policy)
        self.rng = random.Random(self.config.seed)
        self.table = MappingTable()
        self.store = SsdStore(hierarchy.device(Tier.SSD), hierarchy.page_size)
        #: Observers only: the core counts its own statistics, so a bare
        #: manager leaves this bus without a subscriber.
        self.events = EventBus()
        self.inclusivity = InclusivityTracker()

        top_entry = MINI_PAGE_BYTES if self.config.mini_pages else None
        self.chain = TierChain.build(
            hierarchy, self.config.replacement, top_entry_bytes=top_entry
        )
        #: Legacy view of the chain's pools, keyed by tier.
        self.pools: dict[Tier, BufferPool] = {
            node.tier: node.pool for node in self.chain
        }
        self.has_dram = Tier.DRAM in self.chain
        self.has_nvm = Tier.NVM in self.chain
        if self.config.fine_grained and self.chain.tiers != (Tier.DRAM, Tier.NVM):
            raise ValueError(
                "fine-grained loading needs both DRAM and NVM tiers "
                "(it applies to the NVM→DRAM migration path)"
            )
        self.admission_queue: AdmissionQueue | None = None
        queue_size: int | None = None
        if (
            policy.nvm_admission is NvmAdmission.ADMISSION_QUEUE
            and Tier.NVM in self.pools
        ):
            queue_size = self.config.admission_queue_size
            if queue_size is None:
                queue_size = recommended_queue_size(
                    self.pools[Tier.NVM].max_entries
                )
            self.admission_queue = AdmissionQueue(queue_size)
        self.engine = MigrationEngine(self.policy_slot, self.rng,
                                      self.admission_queue)
        self.tenancy: TenancyControl | None = None
        if self.config.tenancy is not None:
            self.tenancy = TenancyControl.build(
                self.config.tenancy, admission_queue_size=queue_size
            )
            if self.tenancy.admission_queues \
                    and self.config.tenancy.num_tenants == 1:
                # The single tenant's queue IS the manager's queue, so
                # legacy reads of ``bm.admission_queue`` stay truthful.
                self.tenancy.admission_queues = (self.admission_queue,)
            self.engine.tenancy = self.tenancy

        # The four-component core.  Constructors take collaborators
        # explicitly; the mutually recursive links (evictions trigger
        # layout transitions trigger evictions, ...) are bound after.
        self.fine_grained = FineGrainedOps(self.chain, hierarchy, self.events,
                                           self.config)
        self.space = SpaceManager(self.chain, self.table, hierarchy,
                                  self.engine, self.store, self.events)
        self.flush_engine = FlushEngine(self.chain, self.table, hierarchy,
                                        self.engine, self.store, self.events)
        self.access_path = AccessPath(self.chain, self.table, hierarchy,
                                      self.engine, self.store, self.events,
                                      self.policy_slot, self.config)
        self.space.tenancy = self.tenancy
        self.fine_grained.bind(self.space)
        self.space.bind(self.fine_grained, self.flush_engine)
        self.flush_engine.bind(self.space)
        self.access_path.bind(self.space, self.fine_grained)
        #: Columnar batch executor over the access path (vectorized
        #: top-tier read hits, per-op fallback for everything else).
        self.batch_path = BatchAccessPath(self.access_path, self.chain,
                                          hierarchy, self.events, self.config)

    # ------------------------------------------------------------------
    # Policy management
    # ------------------------------------------------------------------
    @property
    def policy(self) -> MigrationPolicy:
        return self.policy_slot.policy

    def set_policy(self, policy: MigrationPolicy) -> None:
        """Swap the migration policy at runtime (used by the tuner, §4)."""
        self.policy_slot.set(policy)

    @property
    def wal_guard(self):
        """The log-before-data barrier both persist paths honour.

        Set by the storage engine to ``LogManager.ensure_durable``; a
        checkpoint flush or dirty eviction then forces the log durable
        through the page's LSN before the page itself reaches durable
        media.  ``None`` (cost-model benchmarks) disables the barrier.
        """
        return self.flush_engine.wal_guard

    @wal_guard.setter
    def wal_guard(self, guard) -> None:
        self.flush_engine.wal_guard = guard

    # ------------------------------------------------------------------
    # Page lifecycle
    # ------------------------------------------------------------------
    def allocate_page(self, page_id: PageId | None = None) -> PageId:
        """Create a new page; it initially resides on SSD (§1)."""
        return self.store.allocate(page_id).page_id

    def allocate_pages(self, page_ids) -> int:
        """Bulk-create pages on SSD, skipping ids that already exist.

        The harness uses this to lay out whole databases in one call
        instead of an ``page_exists`` + ``allocate_page`` round-trip per
        page.  Returns the number of pages newly created.
        """
        return self.store.allocate_many(page_ids)

    def page_exists(self, page_id: PageId) -> bool:
        return self.store.exists(page_id)

    def prime_page(self, tier: Tier, page_id: PageId) -> bool:
        """Warm-start helper: install a clean copy of a page on a tier.

        Used by the harness to start measurements near the steady state
        the paper reaches with long warm-ups ("we warm up the system
        until the buffer pool is full", §6.2).  Returns False when the
        pool is full or the page is already resident.  No migration
        decisions run, no statistics are recorded, and no device cost is
        charged — priming models state that long-past warm-up traffic
        would have created.
        """
        node = self.chain.get(tier)
        if node is None or node.pool.needs_space(self.hierarchy.page_size):
            return False
        shared = self.table.get_or_create(page_id)
        if shared.copy_on(tier) is not None:
            return False
        durable = self.store.peek(page_id)
        if durable is None:
            return False
        with shared.latched(tier):
            node.pool.insert(shared, durable.clone(), self.hierarchy.page_size)
        return True

    # ------------------------------------------------------------------
    # Public access paths
    # ------------------------------------------------------------------
    def read(self, page_id: PageId, offset: int = 0,
             nbytes: int = CACHE_LINE_SIZE,
             tenant_id: int = 0) -> AccessResult:
        """Serve a read of ``nbytes`` at ``offset`` within the page."""
        return self.access_path.access(page_id, offset, nbytes,
                                       is_write=False, tenant_id=tenant_id)

    def write(self, page_id: PageId, offset: int = 0,
              nbytes: int = CACHE_LINE_SIZE,
              tenant_id: int = 0) -> AccessResult:
        """Serve an in-place update of ``nbytes`` at ``offset``."""
        return self.access_path.access(page_id, offset, nbytes,
                                       is_write=True, tenant_id=tenant_id)

    def read_batch(self, page_ids, offsets, nbytes: int = CACHE_LINE_SIZE,
                   tenant_id: int = 0) -> None:
        """Serve a batch of uniform-size reads in op order.

        Contiguous top-tier hits execute vectorized; all other ops fall
        back to the per-op walk.  State, statistics, costs, and events
        are identical to issuing the same :meth:`read` calls one by one.
        A batch must not span tenants; callers split on tenant change.
        """
        self.batch_path.read_batch(page_ids, offsets, nbytes, tenant_id)

    # ------------------------------------------------------------------
    # Engine-facing pinned access
    # ------------------------------------------------------------------
    def fetch_page(self, page_id: PageId, for_write: bool = False) -> TierPageDescriptor:
        """Pin and return the buffered copy of a page for direct access.

        The engine layer (index, MVTO, recovery) uses this to read and
        mutate page *content*.  Requires ``fine_grained=False`` so the
        content is always a full :class:`~repro.pages.page.Page`.  Call
        :meth:`release_page` when done.
        """
        if self.config.fine_grained:
            raise RuntimeError(
                "fetch_page requires full-page layouts (fine_grained=False)"
            )
        result = self.write(page_id) if for_write else self.read(page_id)
        tier = result.served_tier
        descriptor = self.table.get_or_create(page_id).copy_on(tier)
        if descriptor is None:  # pragma: no cover - defensive
            raise RuntimeError(f"page {page_id} vanished after access")
        self.pools[tier].replacer.record_access(descriptor.frame_index)
        descriptor.pin()
        if for_write:
            descriptor.mark_dirty()
        return descriptor

    def release_page(self, descriptor: TierPageDescriptor) -> None:
        descriptor.unpin()
        # The one notifier of the unpin condition (§5.2): a migration
        # waiting for this page's readers re-checks its copy.
        notify_unpin()

    # ------------------------------------------------------------------
    # Flushing / checkpointing support
    # ------------------------------------------------------------------
    def flush_dirty_dram(self, limit: int | None = None) -> int:
        """Write dirty top-tier pages down to durable media; see
        :meth:`~repro.core.flush_engine.FlushEngine.flush_dirty_dram`."""
        return self.flush_engine.flush_dirty_dram(limit)

    def flush_all(self) -> int:
        """Flush every dirty buffered page down to SSD (shutdown path)."""
        return self.flush_engine.flush_all()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def resident_pages(self, tier: Tier) -> set[PageId]:
        node = self.chain.get(tier)
        return node.pool.resident_page_ids() if node else set()

    def sample_inclusivity(self) -> float:
        """Record one inclusivity observation (§3.3's ratio)."""
        sample = self.inclusivity.sample(
            self.resident_pages(Tier.DRAM), self.resident_pages(Tier.NVM)
        )
        return sample.ratio

    def nvm_write_volume_gb(self) -> float:
        """Cumulative NVM media write volume (Figs. 8 and 13)."""
        if not self.hierarchy.has_tier(Tier.NVM):
            return 0.0
        device = self.hierarchy.device(Tier.NVM)
        if isinstance(device, MemoryModeDevice):
            return device.snapshot_counters().media_write_bytes / 1e9
        return device.write_volume_gb()

    @property
    def stats(self) -> BufferStats:
        """The paper's counters, as the core components increment them."""
        return self.chain.stats

    def reset_stats(self) -> None:
        """Zero every measurement surface: the stats counters (a fresh
        :class:`BufferStats`; one taken before keeps its counts), the
        inclusivity samples, and the per-device transfer/write-volume
        counters (so e.g. :meth:`nvm_write_volume_gb` restarts from zero
        alongside the hit counters)."""
        self.chain.stats = BufferStats()
        self.inclusivity.reset()
        for device in self.hierarchy.devices.values():
            device.reset_counters()

    # ------------------------------------------------------------------
    # Crash / recovery hooks (§5.2 Recovery)
    # ------------------------------------------------------------------
    def simulate_crash(self) -> None:
        """Drop all volatile state; see
        :meth:`~repro.core.flush_engine.FlushEngine.simulate_crash`."""
        self.flush_engine.simulate_crash()

    def recover_mapping_table(self) -> int:
        """Rebuild the mapping table from persistent buffers; see
        :meth:`~repro.core.flush_engine.FlushEngine.recover_mapping_table`."""
        return self.flush_engine.recover_mapping_table()
