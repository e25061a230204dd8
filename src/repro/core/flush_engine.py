"""Checkpoint flushing, write-back, and crash/recovery glue (§5.2).

The flush engine owns the paths that make dirty pages durable outside
the eviction machinery:

* :meth:`FlushEngine.flush_dirty_dram` — the recovery-protocol flush:
  dirty *volatile* top-tier pages are written down to durable media.
  Dirty pages on persistent buffer tiers are already durable (§5.2
  Recovery) and are skipped.  A flush prefers refreshing or installing
  a copy on the nearest persistent buffer tier over paying the SSD
  write (§3.4's path ⑤ applied to checkpoints, gated by ``N_w`` or
  HyMem's admission queue via :meth:`FlushEngine.flush_admits_to_nvm`),
* :meth:`FlushEngine.writeback_lines_to_nvm` — persisting a partial
  layout's dirty cache lines into its NVM backing page (HyMem §2.1);
  both the checkpoint flush and the eviction path use it,
* :meth:`FlushEngine.flush_all` — the shutdown path: every dirty
  buffered page goes down to SSD,
* :meth:`FlushEngine.simulate_crash` / :meth:`FlushEngine.recover_mapping_table`
  — drop volatile state, then rebuild the mapping table by scanning
  persistent buffers (the first recovery step in §5.2).

Lersch et al. (*Persistent Buffer Management with Optimistic
Consistency*) motivate isolating this persistence path from admission:
the write-back machinery is what a background flush daemon would
parallelise, so it must not share mutable state with the access path
beyond the chain, table, and per-page latches taken here.
"""

from __future__ import annotations

from ..hardware.cost_model import StorageHierarchy
from ..hardware.specs import CACHE_LINE_SIZE, Tier
from ..pages.cacheline_page import CacheLinePage
from ..pages.mini_page import MiniPage
from ..pages.page import Page, PageId
from .descriptors import SharedPageDescriptor, TierPageDescriptor
from .devio import read_with_retry
from .events import EventBus, EventType
from .mapping_table import MappingTable
from .migration import Edge, MigrationEngine, MigrationOp
from .ssd_store import SsdStore
from .tier_chain import TierChain

__all__ = ["FlushEngine"]

#: ``EventType.index`` of what a flush publishes: a site calls the bus
#: only when that type has a subscriber.
_MIGRATE_DOWN = EventType.MIGRATE_DOWN.index
_FLUSH = EventType.FLUSH.index


class FlushEngine:
    """Flush/write-back machinery plus crash and recovery hooks."""

    def __init__(self, chain: TierChain, table: MappingTable,
                 hierarchy: StorageHierarchy, engine: MigrationEngine,
                 store: SsdStore, events: EventBus) -> None:
        self.chain = chain
        self.table = table
        self.hierarchy = hierarchy
        self.engine = engine
        self.store = store
        self.events = events
        self._emit = events.publish
        #: Bound by :meth:`bind`; flushes that admit into NVM reserve
        #: their frame through the space manager.
        self.space = None
        #: The WAL rule (log-before-data): when set (by the storage
        #: engine, to ``LogManager.ensure_durable``), called with a
        #: page's LSN before its content reaches durable media.
        self.wal_guard = None

    def bind(self, space) -> None:
        self.space = space

    def wal_barrier(self, content) -> None:
        """Force the log durable through ``content``'s LSN before it
        is persisted (no-op when no guard is wired)."""
        guard = self.wal_guard
        if guard is not None:
            lsn = getattr(content, "lsn", 0)
            if lsn:
                guard(lsn)

    # ------------------------------------------------------------------
    # Checkpoint flushing
    # ------------------------------------------------------------------
    def flush_dirty_dram(self, limit: int | None = None) -> int:
        """Write dirty top-tier pages down to durable media (the
        recovery-protocol flush).

        Dirty pages on persistent buffer tiers are *not* flushed: they
        are already durable (§5.2 Recovery).  A flush prefers refreshing
        or installing a copy on the nearest persistent buffer tier over
        paying the SSD write.  Returns the number flushed.
        """
        top = self.chain.top
        if top is None or top.persistent:
            return 0
        persist_node = self.chain.first_persistent_below(top)
        latch_tiers = self.chain.tiers + (Tier.SSD,)
        flushed = 0
        for descriptor in top.pool.descriptors():
            if limit is not None and flushed >= limit:
                break
            if not descriptor.dirty or descriptor.pinned:
                continue
            shared = self.table.get(descriptor.page_id)
            if shared is None:
                continue
            with shared.latched(*latch_tiers):
                if not descriptor.dirty:
                    continue
                content = descriptor.content
                self.wal_barrier(content)
                persist_desc = (
                    shared.copy_on(persist_node.tier)
                    if persist_node is not None else None
                )
                if isinstance(content, (CacheLinePage, MiniPage)):
                    # Partial layouts persist their dirty lines into the
                    # NVM backing page, which is durable.
                    self.writeback_lines_to_nvm(shared, descriptor)
                elif persist_desc is not None and isinstance(persist_desc.content, Page):
                    # A live persistent copy makes the page durable with
                    # one NVM page write — far cheaper than the SSD path.
                    top.read(descriptor.page_id, self.hierarchy.page_size,
                             sequential=True)
                    persist_desc.content.copy_from(content)
                    persist_node.write(descriptor.page_id,
                                       self.hierarchy.page_size)
                    persist_node.device.persist_barrier()
                    persist_desc.mark_dirty()
                elif self.flush_admits_to_nvm(descriptor.page_id):
                    # The flush is a downward write migration, so N_w (or
                    # HyMem's admission queue) chooses its destination —
                    # installing the page in NVM persists it without the
                    # SSD write (§3.4's path ⑤ applied to checkpoints).
                    top.read(descriptor.page_id, self.hierarchy.page_size,
                             sequential=True)
                    persist_desc = self.space.insert_with_space(
                        persist_node, shared, content.clone(),
                        self.hierarchy.page_size,
                    )
                    persist_desc.mark_dirty()
                    persist_node.write(descriptor.page_id,
                                       self.hierarchy.page_size)
                    persist_node.device.persist_barrier()
                    self.chain.stats.dram_to_nvm += 1
                    if self.events._appliers[_MIGRATE_DOWN]:
                        self._emit(EventType.MIGRATE_DOWN, descriptor.page_id,
                                   tier=persist_node.tier, src=top.tier,
                                   dirty=True)
                else:
                    top.read(descriptor.page_id, self.hierarchy.page_size,
                             sequential=True)
                    self.store.write_page(content, sequential=True)
                descriptor.clear_dirty()
                flushed += 1
                self.chain.stats.dirty_page_flushes += 1
                if self.events._appliers[_FLUSH]:
                    self._emit(EventType.FLUSH, descriptor.page_id,
                               tier=top.tier)
        return flushed

    def flush_admits_to_nvm(self, page_id: PageId) -> bool:
        """Should a checkpoint flush land in NVM rather than on SSD?"""
        top = self.chain.top
        persist_node = (
            self.chain.first_persistent_below(top) if top is not None else None
        )
        if persist_node is None:
            return False
        edge = Edge(top.tier, persist_node.tier)
        return self.engine.decide(edge, MigrationOp.FLUSH_ADMIT, page_id)

    def flush_all(self) -> int:
        """Flush every dirty buffered page down to SSD (shutdown path)."""
        flushed = self.flush_dirty_dram()
        top = self.chain.top
        for node in self.chain:
            if node is top and not node.persistent:
                continue
            for descriptor in node.pool.descriptors():
                if not descriptor.dirty:
                    continue
                shared = self.table.get(descriptor.page_id)
                if shared is None:
                    continue
                with shared.latched(node.tier, Tier.SSD):
                    if descriptor.dirty and isinstance(descriptor.content, Page):
                        self.wal_barrier(descriptor.content)
                        read_with_retry(node.device, self.hierarchy.page_size)
                        self.store.write_page(descriptor.content, sequential=True)
                        descriptor.clear_dirty()
                        flushed += 1
        return flushed

    # ------------------------------------------------------------------
    # Partial-layout write-back
    # ------------------------------------------------------------------
    def writeback_lines_to_nvm(self, shared: SharedPageDescriptor,
                               descriptor: TierPageDescriptor) -> None:
        """Flush a partial layout's dirty lines into its NVM backing page."""
        content = descriptor.content
        if isinstance(content, MiniPage):
            dirty_lines = len(content.writeback_lines())
        elif isinstance(content, CacheLinePage):
            dirty_lines = content.writeback_lines()
        else:
            return
        if dirty_lines:
            self.wal_barrier(content)
            nvm = self.chain.node(Tier.NVM)
            nvm.write(descriptor.page_id, dirty_lines * CACHE_LINE_SIZE)
            nvm.device.persist_barrier()
            nvm_desc = shared.copy_on(Tier.NVM)
            if nvm_desc is not None:
                nvm_desc.mark_dirty()
        descriptor.clear_dirty()

    # ------------------------------------------------------------------
    # Crash / recovery hooks (§5.2 Recovery)
    # ------------------------------------------------------------------
    def simulate_crash(self) -> None:
        """Drop all volatile state: volatile pools and the mapping table.

        Persistent pools' frames survive (NVM is persistent); the mapping
        table is DRAM-resident and must be reconstructed by recovery.
        """
        for node in self.chain.volatile_nodes:
            for descriptor in node.pool.descriptors():
                node.pool.remove(self.table.get(descriptor.page_id), descriptor)
        self.table.clear()

    def recover_mapping_table(self) -> int:
        """Rebuild the mapping table by scanning persistent buffers.

        Mirrors the first recovery step in §5.2: collect the page ids of
        NVM-resident frames and reconstruct their descriptors.  Returns
        the number of recovered entries.
        """
        recovered = 0
        for node in self.chain.persistent_nodes:
            for descriptor in node.pool.descriptors():
                shared = self.table.get_or_create(descriptor.page_id)
                if shared.copy_on(node.tier) is None:
                    shared.attach(descriptor)
                    recovered += 1
                # Scanning the buffer costs a header read per frame.
                read_with_retry(node.device, CACHE_LINE_SIZE, sequential=True)
        return recovered
