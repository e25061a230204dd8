"""Victim selection, eviction, and space reclamation (§3.4, §5).

The space manager owns the *downward* half of page motion: finding a
frame for an incoming copy (:meth:`SpaceManager.ensure_space` /
:meth:`SpaceManager.insert_with_space`) and applying the eviction half
of the migration policy when a pool is full
(:meth:`SpaceManager.evict_from_node`):

* dirty victims draw the eviction-admission knob (``N_w`` or HyMem's
  admission queue) of the edge into the next-lower buffer node and are
  written back to the SSD store otherwise (§3.4, path ⑤ of Fig. 3),
* clean victims are *considered* for admission only when no lower copy
  exists — the lower buffer acts as a victim cache, which is the only
  way it fills on read-mostly workloads (Table 2) — and are dropped
  otherwise (§3.3: the SSD copy is still valid),
* evicting an NVM page first forces any partial DRAM layout backed by
  it to full residency (the self-containment dance), since the backing
  page is about to disappear.

Collaborators are taken explicitly: the chain, mapping table, migration
engine, SSD store, event bus, and hierarchy at construction;
the fine-grained ops (for partial-layout promotion) and the flush
engine (for dirty-line write-back) via :meth:`bind`, because the three
components are mutually recursive through the eviction path.
"""

from __future__ import annotations

import time

from ..hardware.cost_model import StorageHierarchy
from ..hardware.simclock import CostAccumulator, checked_fp
from ..hardware.specs import Tier
from ..pages.cacheline_page import CacheLinePage
from ..pages.mini_page import MiniPage
from ..pages.page import Page, PageId
from .descriptors import FrameContent, SharedPageDescriptor, TierPageDescriptor
from .devio import read_with_retry
from .events import EventBus, EventType
from .mapping_table import MappingTable
from .migration import MigrationEngine, MigrationOp
from .ssd_store import SsdStore
from .tenancy import QuotaMode
from .tier_chain import BufferFullError, TierChain, TierNode

__all__ = ["SpaceManager"]

#: Claimed-victim probes spent looking for a *preferred* (over-quota)
#: victim before settling for the replacer's first candidate.  Bounded:
#: preference is best-effort fairness, hard quotas are enforced by
#: :meth:`SpaceManager._enforce_hard_quota` instead.
_PREFERRED_VICTIM_PROBES = 8

#: Victim probes that may come back empty (every frame pinned, or
#: claimed by a concurrent evictor) before a reservation gives up, and
#: the pause after the first of them; it doubles after each, ~13 ms in
#: all.  The pause is what lets a concurrent evictor finish: a probe
#: repeated without giving up the GIL finds what the last one found.
_EMPTY_VICTIM_PROBES = 8
_EMPTY_PROBE_PAUSE_S = 50e-6


class SpaceManager:
    """Frame reservation and the eviction/reclamation machinery."""

    def __init__(self, chain: TierChain, table: MappingTable,
                 hierarchy: StorageHierarchy, engine: MigrationEngine,
                 store: SsdStore, events: EventBus) -> None:
        self.chain = chain
        self.table = table
        self.hierarchy = hierarchy
        self.engine = engine
        self.store = store
        self._emit = events.publish
        self._cost = hierarchy.cost
        #: The CPU costs of an eviction decision and of copying a page
        #: one edge down, quantised once.
        costs = hierarchy.cpu_costs
        self._eviction_fp = checked_fp(costs.eviction_ns)
        self._page_copy_fp = checked_fp(costs.copy_ns(hierarchy.page_size))
        #: Bound by :meth:`bind`: partial layouts are written back via
        #: the flush engine and made self-contained via fine-grained ops.
        self.fine = None
        self.flush = None
        #: Optional :class:`~repro.core.tenancy.TenancyControl`; when it
        #: enforces quotas, victim selection becomes tenant-aware.
        self.tenancy = None

    def bind(self, fine, flush) -> None:
        self.fine = fine
        self.flush = flush

    # ------------------------------------------------------------------
    # Space reservation
    # ------------------------------------------------------------------
    def ensure_space(self, node: TierNode, incoming_bytes: int,
                     protect: PageId | None = None) -> None:
        """Evict from ``node`` until ``incoming_bytes`` fit in its pool,
        never choosing ``protect``'s copy as the victim."""
        pool = node.pool
        tenancy = self.tenancy
        enforcing = tenancy is not None and tenancy.enforcing
        if enforcing and protect is not None \
                and tenancy.config.quota_mode is QuotaMode.HARD:
            # Hard partition: the incoming page's tenant must stay within
            # its frame share even while the pool has free frames, so it
            # first evicts one of its *own* pages when at quota.
            self._enforce_hard_quota(node, protect)
        guard = 2 * pool.max_entries + 4
        misses = 0
        while pool.needs_space(incoming_bytes):
            guard -= 1
            if guard < 0:  # pragma: no cover - defensive
                raise BufferFullError(
                    f"unable to reclaim {incoming_bytes} B on {node.tier.name}"
                )
            if enforcing:
                victim = self._pick_preferred_victim(node, pool)
            else:
                victim = pool.pick_victim()
            if victim is None:
                # Every frame is pinned or claimed by a concurrent
                # evictor: let those run, then look again (the loop
                # condition first — one of them may have freed a frame).
                misses += 1
                if misses > _EMPTY_VICTIM_PROBES:
                    raise BufferFullError(
                        f"all {node.tier.name} frames are pinned; cannot evict"
                    )
                time.sleep(_EMPTY_PROBE_PAUSE_S * (1 << (misses - 1)))
                continue
            misses = 0
            if protect is not None and victim.page_id == protect:
                pool.replacer.record_access(victim.frame_index)
                pool.unclaim(victim)
                continue
            self.evict_from_node(node, victim)

    def insert_with_space(self, node: TierNode, shared: SharedPageDescriptor,
                          content: FrameContent,
                          entry_bytes: int) -> TierPageDescriptor:
        """Reserve space and install ``shared``'s page on ``node``,
        retrying lost races for free frames.  The page's own copies are
        protected from the evictions this may trigger."""
        pool = node.pool
        for _ in range(64):
            self.ensure_space(node, entry_bytes, protect=shared.page_id)
            try:
                return pool.insert(shared, content, entry_bytes)
            except BufferFullError:
                continue
        raise BufferFullError(  # pragma: no cover - defensive
            f"could not secure a {node.tier.name} frame for page "
            f"{content.page_id}"
        )

    # ------------------------------------------------------------------
    # Tenant-aware victim selection
    # ------------------------------------------------------------------
    def _enforce_hard_quota(self, node: TierNode, incoming: PageId) -> None:
        """Keep the incoming page's tenant within its hard frame share.

        While the tenant holds at least its quota of frames on this
        tier, one of its own (unpinned, un-claimed) pages is evicted
        before the install proceeds — even when the pool has free
        frames.  Pinned frames can leave the quota transiently breached;
        that is unavoidable and resolves on the next insert.
        """
        tenancy = self.tenancy
        pool = node.pool
        tenant = tenancy.tenant_of(incoming)
        quota = tenancy.quota_frames(node.tier, pool.max_entries, tenant)
        guard = pool.max_entries + 4
        while guard > 0:
            guard -= 1
            held = sum(
                1 for descriptor in pool.descriptors()
                if tenancy.tenant_of(descriptor.page_id) == tenant
            )
            if held < quota:
                return
            victim = self._pick_tenant_victim(pool, tenant, avoid=incoming)
            if victim is None:
                # Everything the tenant holds is pinned or claimed.
                return
            self.evict_from_node(node, victim)

    def _pick_tenant_victim(self, pool, tenant: int,
                            avoid: PageId) -> TierPageDescriptor | None:
        """Claim a victim owned by ``tenant`` (skipping ``avoid``).

        Sweeps the replacer, holding claims on other tenants' candidates
        so repeated picks make progress; held claims are released before
        returning.  Returns ``None`` once the replacer runs dry (all of
        the tenant's frames are pinned or already claimed).
        """
        tenancy = self.tenancy
        held: list[TierPageDescriptor] = []
        try:
            while True:
                victim = pool.pick_victim()
                if victim is None:
                    return None
                if victim.page_id != avoid \
                        and tenancy.tenant_of(victim.page_id) == tenant:
                    return victim
                held.append(victim)
        finally:
            for descriptor in held:
                pool.unclaim(descriptor)

    def _pick_preferred_victim(self, node: TierNode,
                               pool) -> TierPageDescriptor | None:
        """Claim a victim, preferring tenants holding above their share.

        Both quota modes use the same preference: a victim whose tenant
        currently holds more frames than its share allows.  A bounded
        number of claimed candidates is probed; if none is preferred the
        replacer's first choice wins (soft shares are guarantees under
        contention, not bans — and hard quotas are already enforced by
        :meth:`_enforce_hard_quota` on the insert side).
        """
        tenancy = self.tenancy
        usage = tenancy.usage_by_tenant(pool.descriptors())
        max_entries = pool.max_entries
        held: list[TierPageDescriptor] = []
        chosen: TierPageDescriptor | None = None
        try:
            for _ in range(_PREFERRED_VICTIM_PROBES):
                victim = pool.pick_victim()
                if victim is None:
                    break
                tenant = tenancy.tenant_of(victim.page_id)
                quota = tenancy.quota_frames(node.tier, max_entries, tenant)
                if usage.get(tenant, 0) > quota:
                    chosen = victim
                    return chosen
                held.append(victim)
            if held:
                chosen = held.pop(0)
            return chosen
        finally:
            for descriptor in held:
                pool.unclaim(descriptor)

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def evict_from_node(self, node: TierNode,
                        descriptor: TierPageDescriptor) -> None:
        """Apply the eviction half of the migration policy (§3.4).

        Dirty victims draw the eviction-admission knob of the edge into
        the next-lower buffer node (when one exists) and are written back
        to the store otherwise.  Clean victims are considered for
        admission only when no lower copy exists — the lower buffer acts
        as a victim cache — and are dropped otherwise (§3.3: the SSD copy
        is still valid).
        """
        self._cost.charge_fp(CostAccumulator.CPU, self._eviction_fp)
        page_id = descriptor.page_id
        shared = self.table.get(page_id)
        if shared is None:  # pragma: no cover - defensive
            node.pool.remove(None, descriptor)
            return
        stats = self.chain.stats
        if node.tier is Tier.DRAM:
            stats.dram_evictions += 1
        else:
            stats.nvm_evictions += 1
        self._emit(EventType.EVICT, page_id, tier=node.tier,
                   dirty=descriptor.dirty)
        content = descriptor.content

        if node.tier is Tier.NVM:
            # A partial DRAM copy backed by this NVM page must become
            # self-contained before the backing disappears.
            dram_desc = shared.copy_on(Tier.DRAM)
            if dram_desc is not None and isinstance(
                dram_desc.content, (CacheLinePage, MiniPage)
            ):
                with shared.latched(Tier.DRAM, Tier.NVM):
                    self.flush.writeback_lines_to_nvm(shared, dram_desc)
                    self.fine.promote_to_full_residency(dram_desc)

        if isinstance(content, (CacheLinePage, MiniPage)):
            if shared.copy_on(Tier.NVM) is not None:
                # Partial layout over a live NVM page: write dirty lines back.
                with shared.latched(node.tier, Tier.NVM):
                    self.flush.writeback_lines_to_nvm(shared, descriptor)
                    node.pool.remove(shared, descriptor)
                return
            content = self.fine.promote_to_full_residency(descriptor)

        lower = self.chain.lower_of(node)
        if descriptor.dirty:
            # WAL rule: the victim's effects must be durable in the log
            # before its content reaches durable media (whether the SSD
            # store or a persistent lower buffer tier).
            self.flush.wal_barrier(content)
            admitted = lower is not None and self.engine.decide(
                node.evict_edge, MigrationOp.EVICT_ADMIT, page_id
            )
            if admitted:
                self.admit_eviction_to_lower(shared, descriptor, content,
                                             node, lower)
            else:
                # A buffered copy below the victim is stale the moment
                # the dirty victim bypasses it to the store: the write
                # that dirtied this copy never reached it.  Leaving it
                # mapped would serve old content once this tier's copy
                # is gone — invalidate it under the same latch scope.
                stale_tier = (
                    lower.tier if lower is not None
                    and shared.copy_on(lower.tier) is not None else None
                )
                latch_tiers = ((node.tier, Tier.SSD) if stale_tier is None
                               else (node.tier, stale_tier, Tier.SSD))
                with shared.latched(*latch_tiers):
                    if isinstance(content, Page):
                        read_with_retry(node.device, self.hierarchy.page_size,
                                        sequential=not node.persistent)
                        self.store.write_page(content)
                    stats = self.chain.stats
                    if node.tier is Tier.DRAM:
                        stats.dram_to_ssd += 1
                    else:
                        stats.nvm_to_ssd += 1
                    self._emit(EventType.WRITE_BACK, page_id, tier=Tier.SSD,
                               src=node.tier, dirty=True)
                    node.pool.remove(shared, descriptor)
                    if stale_tier is not None:
                        stale_desc = shared.copy_on(stale_tier)
                        if stale_desc is not None:
                            self.chain.stats.clean_drops += 1
                            self._emit(EventType.CLEAN_DROP, page_id,
                                       tier=stale_tier)
                            lower.pool.remove(shared, stale_desc)
        else:
            # Clean pages need no write-back (the SSD copy is valid,
            # §3.3), but they are still *considered* for admission below:
            # the lower buffer acts as a victim cache for the tier above,
            # which is the only way it fills on read-mostly workloads
            # (Table 2 shows substantial NVM occupancy on YCSB-RO at
            # every N).
            admitted = (
                lower is not None
                and shared.copy_on(lower.tier) is None
                and self.engine.decide(
                    node.evict_edge, MigrationOp.EVICT_ADMIT, page_id
                )
            )
            if admitted:
                self.admit_eviction_to_lower(shared, descriptor, content,
                                             node, lower)
            else:
                with shared.latched(node.tier):
                    self.chain.stats.clean_drops += 1
                    self._emit(EventType.CLEAN_DROP, page_id, tier=node.tier)
                    node.pool.remove(shared, descriptor)

    def admit_eviction_to_lower(self, shared: SharedPageDescriptor,
                                descriptor: TierPageDescriptor, content: Page,
                                node: TierNode, lower: TierNode) -> None:
        """Move an eviction one edge down the chain (path ⑤ of Fig. 3)."""
        page_id = content.page_id
        with shared.latched(node.tier, lower.tier):
            lower_desc = shared.copy_on(lower.tier)
            read_with_retry(node.device, self.hierarchy.page_size,
                            sequential=True)
            self._cost.charge_fp(CostAccumulator.CPU, self._page_copy_fp)
            if lower_desc is not None:
                lower_desc.content.copy_from(content)
                lower.write(page_id, self.hierarchy.page_size)
                if lower.persistent:
                    lower.device.persist_barrier()
                if descriptor.dirty:
                    lower_desc.mark_dirty()
                # The lower copy already existed: just drop the upper frame.
                node.pool.remove(shared, descriptor)
            else:
                node.pool.remove(shared, descriptor)
                lower_desc = self.insert_with_space(
                    lower, shared, content.clone(),
                    self.hierarchy.page_size,
                )
                lower.write(page_id, self.hierarchy.page_size)
                if lower.persistent:
                    lower.device.persist_barrier()
                if descriptor.dirty:
                    lower_desc.mark_dirty()
            self.chain.stats.dram_to_nvm += 1
            self._emit(EventType.MIGRATE_DOWN, page_id, tier=lower.tier,
                       src=node.tier, dirty=descriptor.dirty)
