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

All three entry points run one routine, :meth:`SpaceManager._cascade`:
victim pick, the victim's fate, the move, and — when a victim is
admitted one edge down with no copy there — the room-making on the
level below, as one loop down the chain.  A copy waiting for its frame
below keeps its victim's latches until it lands.

Collaborators are taken explicitly: the chain, mapping table, migration
engine, SSD store, event bus, and hierarchy at construction;
the fine-grained ops (for partial-layout promotion) and the flush
engine (for dirty-line write-back) via :meth:`bind`, because the three
components are mutually recursive through the eviction path.
"""

from __future__ import annotations

import time

from ..faults.plan import DeviceIOError
from ..hardware.cost_model import StorageHierarchy
from ..hardware.simclock import CostAccumulator, checked_fp
from ..hardware.specs import Tier
from ..pages.cacheline_page import CacheLinePage
from ..pages.mini_page import MiniPage
from ..pages.page import PageId
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
#: preference is best-effort fairness, hard quotas are enforced by the
#: quota phase of :meth:`SpaceManager._cascade` instead.
_PREFERRED_VICTIM_PROBES = 8

#: Victim probes that may come back empty (every frame pinned, or
#: claimed by a concurrent evictor) before a reservation gives up, and
#: the pause after the first of them; it doubles after each, ~13 ms in
#: all.  The pause is what lets a concurrent evictor finish: a probe
#: repeated without giving up the GIL finds what the last one found.
_EMPTY_VICTIM_PROBES = 8
_EMPTY_PROBE_PAUSE_S = 50e-6

#: Attempts to install a page in a frame just made free before giving
#: up: a concurrent insert may take the frame first.
_INSERT_ATTEMPTS = 64

_CPU = CostAccumulator.CPU
_DRAM_RANK = Tier.DRAM.rank
_NVM_RANK = Tier.NVM.rank
#: The latches a partial layout's settling takes: its DRAM copy's and
#: its NVM backing page's.
_PARTIAL_RANKS = (_DRAM_RANK, _NVM_RANK)
#: The layouts that keep their page's data on an NVM backing page.
_PARTIAL = (CacheLinePage, MiniPage)
#: ``EventType.index`` of what an eviction publishes: a site calls the
#: bus only when that type has a subscriber.
_EVICT = EventType.EVICT.index
_WRITE_BACK = EventType.WRITE_BACK.index
_CLEAN_DROP = EventType.CLEAN_DROP.index
_MIGRATE_DOWN = EventType.MIGRATE_DOWN.index


def _ranks(*tiers: Tier) -> tuple[int, ...]:
    """Latch ranks of ``tiers`` in canonical (top-down) order."""
    return tuple(sorted({tier.rank for tier in tiers}))


def _latch_victim(shared: SharedPageDescriptor, ranks: tuple[int, ...]):
    """Take the latches ``ranks`` of a victim's page, in canonical order.

    The one site where an eviction latches its victim: every fate and
    the self-containment step go through here, so a try-and-restart
    protocol is a change to this function.  Returns the page's latch
    tuple for the release.
    """
    latches = shared._latches
    for rank in ranks:
        latches[rank].acquire()
    return latches


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
        self.events = events
        self._emit = events.publish
        self._cost = hierarchy.cost
        #: The CPU costs of an eviction decision and of copying a page
        #: one edge down, quantised once.
        costs = hierarchy.cpu_costs
        self._eviction_fp = checked_fp(costs.eviction_ns)
        self._page_copy_fp = checked_fp(costs.copy_ns(hierarchy.page_size))
        #: Per chain position: the node below (``None`` at the bottom),
        #: its latch rank, and the latch ranks of each fate of a victim
        #: there — admitted one edge down, dropped, written back, and
        #: written back over a stale lower copy — fixed by the chain.
        self._levels = tuple(self._level(node) for node in chain.nodes)
        #: Bound by :meth:`bind`: partial layouts are written back via
        #: the flush engine and made self-contained via fine-grained ops.
        self.fine = None
        self.flush = None
        #: Whether the chain can hold a partial layout at all (read from
        #: the config at :meth:`bind`): only a fine-grained chain ever
        #: builds a ``CacheLinePage`` or ``MiniPage``.
        self._partial = False
        #: Optional :class:`~repro.core.tenancy.TenancyControl`; when it
        #: enforces quotas, victim selection becomes tenant-aware.
        self.tenancy = None

    def _level(self, node: TierNode) -> tuple:
        lower = self.chain.lower_of(node)
        if lower is None:
            return (None, None, None, _ranks(node.tier),
                    _ranks(node.tier, Tier.SSD), None)
        return (lower, lower.tier.rank, _ranks(node.tier, lower.tier),
                _ranks(node.tier), _ranks(node.tier, Tier.SSD),
                _ranks(node.tier, lower.tier, Tier.SSD))

    def bind(self, fine, flush) -> None:
        self.fine = fine
        self.flush = flush
        self._partial = fine.config.fine_grained

    # ------------------------------------------------------------------
    # Space reservation
    # ------------------------------------------------------------------
    def ensure_space(self, node: TierNode, incoming_bytes: int,
                     protect: PageId | None = None) -> None:
        """Evict from ``node`` until ``incoming_bytes`` fit in its pool,
        never choosing ``protect``'s copy as the victim."""
        self._cascade(node, incoming_bytes, protect, None)

    def insert_with_space(self, node: TierNode, shared: SharedPageDescriptor,
                          content: FrameContent,
                          entry_bytes: int) -> TierPageDescriptor:
        """Reserve space and install ``shared``'s page on ``node``,
        retrying lost races for free frames.  The page's own copies are
        protected from the evictions this may trigger."""
        pool = node.pool
        for _ in range(_INSERT_ATTEMPTS):
            self._cascade(node, entry_bytes, shared.page_id, None)
            try:
                return pool.insert(shared, content, entry_bytes)
            except BufferFullError:
                continue
        raise BufferFullError(  # pragma: no cover - defensive
            f"could not secure a {node.tier.name} frame for page "
            f"{content.page_id}"
        )

    def evict_from_node(self, node: TierNode,
                        descriptor: TierPageDescriptor) -> None:
        """Apply the eviction half of the migration policy (§3.4) to one
        victim, and to whatever its admission one edge down evicts.

        Dirty victims draw the eviction-admission knob of the edge into
        the next-lower buffer node (when one exists) and are written back
        to the store otherwise.  Clean victims are considered for
        admission only when no lower copy exists — the lower buffer acts
        as a victim cache — and are dropped otherwise (§3.3: the SSD copy
        is still valid).
        """
        self._cascade(node, None, None, descriptor)

    # ------------------------------------------------------------------
    # The eviction loop
    # ------------------------------------------------------------------
    def _cascade(self, node: TierNode, incoming_bytes: int | None,
                 protect: PageId | None,
                 victim: TierPageDescriptor | None) -> None:
        """Make ``incoming_bytes`` of room on ``node`` (or, with
        ``incoming_bytes`` ``None``, evict just ``victim``), cascading.

        Each turn of the loop either picks a victim on the current
        level — under a hard quota, first one of the incoming page's own
        tenant's — or settles the one it has: drop, write back, overwrite
        the lower copy, or admit it one edge down.  An admission with no
        lower copy removes the victim and moves the loop to the level
        below, which makes room for the copy the same way; once there is
        room the copy lands (frame, write, barrier, ``MIGRATE_DOWN``),
        its victim's latches are released, and the loop resumes the
        level above.  So charges, events, draws and latches come in
        depth-first order: a level's victim is settled only after the
        room it needed below was made
        (``tests/test_eviction_differential.py`` pins that order).
        """
        cost = self._cost
        events = self.events
        emit = self._emit
        levels = self._levels
        page_size = self.hierarchy.page_size
        tenancy = self.tenancy
        enforcing = tenancy is not None and tenancy.enforcing
        hard = enforcing and tenancy.config.quota_mode is QuotaMode.HARD
        # In a chain of whole page frames with no quota phase, settling
        # one victim frees the one frame a page needs: a level that has
        # just settled one has its room without asking its pool again
        # (a concurrent insert that takes the frame fails the landing or
        # the caller's insert, which makes room again).
        whole_frames = not (self._partial or hard) \
            and (incoming_bytes is None or incoming_bytes <= page_size)
        settled = False
        # Latches taken and not yet released, innermost last.
        held: list[tuple] = []
        # Copies admitted one edge down, each waiting for a frame on the
        # level below its victim's, with the state of that victim's
        # level to resume: innermost last.
        waiting: list[tuple] = []
        pool = node.pool
        quota_probes = (pool.max_entries + 4
                        if hard and protect is not None else 0)
        guard = 2 * pool.max_entries + 4
        misses = 0
        try:
            while True:
                if victim is None:
                    pool = node.pool
                    if quota_probes:
                        # Hard partition: the incoming page's tenant must
                        # stay within its frame share even while the pool
                        # has free frames, so it first evicts one of its
                        # *own* pages when at quota.
                        quota_probes -= 1
                        victim = self._quota_victim(node, protect)
                        if victim is None:
                            quota_probes = 0
                            continue
                    elif incoming_bytes is not None \
                            and not (settled and whole_frames) \
                            and pool.needs_space(incoming_bytes):
                        guard -= 1
                        if guard < 0:  # pragma: no cover - defensive
                            raise BufferFullError(
                                f"unable to reclaim {incoming_bytes} B on "
                                f"{node.tier.name}"
                            )
                        if enforcing:
                            victim = self._pick_preferred_victim(node, pool)
                        else:
                            victim = pool.pick_victim()
                        if victim is None:
                            # Every frame is pinned or claimed by a
                            # concurrent evictor: let those run, then look
                            # again (the room first — one of them may have
                            # freed a frame).
                            misses += 1
                            if misses > _EMPTY_VICTIM_PROBES:
                                raise BufferFullError(
                                    f"all {node.tier.name} frames are "
                                    "pinned; cannot evict"
                                )
                            time.sleep(_EMPTY_PROBE_PAUSE_S
                                       * (1 << (misses - 1)))
                            continue
                        misses = 0
                        if victim.page_id == protect:
                            pool.replacer.record_access(victim.frame_index)
                            pool.unclaim(victim)
                            victim = None
                            continue
                    elif not waiting:
                        return
                    else:
                        # The room is made: land the copy waiting for it
                        # (a concurrent insert that took the frame first
                        # sends the loop back to making room).
                        (upper, up_incoming, up_protect, up_quota, up_guard,
                         shared, moved, copy) = waiting[-1]
                        try:
                            lower_desc = pool.insert(shared, copy, page_size)
                        except BufferFullError:
                            settled = False
                            continue
                        del waiting[-1]
                        page_id = shared.page_id
                        node.write(page_id, page_size)
                        if node.persistent:
                            node.device.persist_barrier()
                        if moved.dirty:
                            lower_desc.dirty = True
                        self.chain.stats.dram_to_nvm += 1
                        if events._appliers[_MIGRATE_DOWN]:
                            emit(EventType.MIGRATE_DOWN, page_id,
                                 tier=node.tier, src=upper.tier,
                                 dirty=moved.dirty)
                        latches, ranks = held.pop()
                        for rank in reversed(ranks):
                            latches[rank].release()
                        node, incoming_bytes, protect, quota_probes, guard = (
                            upper, up_incoming, up_protect, up_quota, up_guard)
                        misses = 0
                        settled = True
                        continue

                # The victim's fate.
                cost.charge_fp(_CPU, self._eviction_fp)
                page_id = victim.page_id
                shared = self.table.get(page_id)
                if shared is None:  # pragma: no cover - defensive
                    pool.remove(None, victim)
                    victim = None
                    continue
                stats = self.chain.stats
                tier = node.tier
                if tier is Tier.DRAM:
                    stats.dram_evictions += 1
                else:
                    stats.nvm_evictions += 1
                if events._appliers[_EVICT]:
                    emit(EventType.EVICT, page_id, tier=tier,
                         dirty=victim.dirty)
                if self._partial:
                    content = self._settle_partial(node, shared, victim)
                    if content is None:
                        victim = None
                        continue
                else:
                    content = victim.content
                lower, lower_rank, admit, drop, back, stale_back = \
                    levels[node.index]
                if victim.dirty:
                    # WAL rule: the victim's effects must be durable in
                    # the log before its content reaches durable media
                    # (whether the SSD store or a persistent lower tier).
                    self.flush.wal_barrier(content)
                    if lower is not None and self.engine.decide(
                            node.evict_edge, MigrationOp.EVICT_ADMIT,
                            page_id):
                        ranks = admit
                    elif lower is not None \
                            and shared._copies[lower_rank] is not None:
                        # A buffered copy below the victim is stale the
                        # moment the dirty victim bypasses it to the
                        # store: invalidate it under the same latches.
                        ranks = stale_back
                    else:
                        ranks = back
                elif lower is not None \
                        and shared._copies[lower_rank] is None \
                        and self.engine.decide(node.evict_edge,
                                               MigrationOp.EVICT_ADMIT,
                                               page_id):
                    # Clean pages need no write-back (the SSD copy is
                    # valid, §3.3), but they are still *considered* for
                    # admission below: the lower buffer is a victim cache
                    # for the tier above, the only way it fills on
                    # read-mostly workloads (Table 2).
                    ranks = admit
                else:
                    ranks = drop
                held.append((_latch_victim(shared, ranks), ranks))
                if ranks is not drop:
                    # The victim's page is read off its tier: streamed
                    # one edge down or from a volatile tier to the store,
                    # at random from a persistent one to the store.
                    device = node.device
                    sequential = ranks is admit or not node.persistent
                    try:
                        device.read(page_size, sequential)
                    except DeviceIOError as exc:
                        read_with_retry(device, page_size, sequential,
                                        failed=exc)
                if ranks is admit:
                    # Path ⑤ of Fig. 3: the victim moves one edge down.
                    lower_desc = shared._copies[lower_rank]
                    cost.charge_fp(_CPU, self._page_copy_fp)
                    if lower_desc is None:
                        pool.remove(shared, victim)
                        waiting.append((node, incoming_bytes, protect,
                                        quota_probes, guard, shared, victim,
                                        content.clone()))
                        node, incoming_bytes, protect = lower, page_size, \
                            page_id
                        pool = lower.pool
                        quota_probes = pool.max_entries + 4 if hard else 0
                        guard = 2 * pool.max_entries + 4
                        settled = False
                        victim = None
                        continue
                    lower_desc.content.copy_from(content)
                    lower.write(page_id, page_size)
                    if lower.persistent:
                        lower.device.persist_barrier()
                    if victim.dirty:
                        lower_desc.dirty = True
                    pool.remove(shared, victim)
                    stats.dram_to_nvm += 1
                    if events._appliers[_MIGRATE_DOWN]:
                        emit(EventType.MIGRATE_DOWN, page_id,
                             tier=lower.tier, src=tier, dirty=victim.dirty)
                elif ranks is drop:
                    stats.clean_drops += 1
                    if events._appliers[_CLEAN_DROP]:
                        emit(EventType.CLEAN_DROP, page_id, tier=tier)
                    pool.remove(shared, victim)
                else:
                    self.store.write_page(content)
                    if tier is Tier.DRAM:
                        stats.dram_to_ssd += 1
                    else:
                        stats.nvm_to_ssd += 1
                    if events._appliers[_WRITE_BACK]:
                        emit(EventType.WRITE_BACK, page_id, tier=Tier.SSD,
                             src=tier, dirty=True)
                    pool.remove(shared, victim)
                    if ranks is stale_back:
                        stale = shared._copies[lower_rank]
                        if stale is not None:
                            stats.clean_drops += 1
                            if events._appliers[_CLEAN_DROP]:
                                emit(EventType.CLEAN_DROP, page_id,
                                     tier=lower.tier)
                            lower.pool.remove(shared, stale)
                latches, ranks = held.pop()
                for rank in reversed(ranks):
                    latches[rank].release()
                settled = True
                victim = None
        except BaseException:
            while held:
                latches, ranks = held.pop()
                for rank in reversed(ranks):
                    latches[rank].release()
            raise

    def _settle_partial(self, node: TierNode, shared: SharedPageDescriptor,
                        victim: TierPageDescriptor):
        """The partial-layout steps of an eviction (fine-grained chains),
        under the page's DRAM and NVM latches — a layout changes only
        with its DRAM latch held, so what is read here stays true.

        An NVM victim first makes a partial DRAM copy backed by it
        self-contained, before the backing disappears.  A partial victim
        (always a DRAM copy) over a live NVM page writes its dirty lines
        back, if it has any, and is gone (returns ``None``); one without
        writes itself out as a full page through the fates of a full
        page (returns that page).  Any other victim's content is
        returned as it is.
        """
        latches = _latch_victim(shared, _PARTIAL_RANKS)
        try:
            if node.tier is Tier.NVM:
                above = shared._copies[_DRAM_RANK]
                if above is not None and isinstance(above.content, _PARTIAL):
                    self.flush.writeback_lines_to_nvm(shared, above)
                    self.fine.promote_to_full_residency(above)
                return victim.content
            content = victim.content
            if not isinstance(content, _PARTIAL):
                return content
            if shared._copies[_NVM_RANK] is None:
                return self.fine.promote_to_full_residency(victim)
            if content.dirty_mask:
                self.flush.writeback_lines_to_nvm(shared, victim)
            node.pool.remove(shared, victim)
            return None
        finally:
            latches[_NVM_RANK].release()
            latches[_DRAM_RANK].release()

    # ------------------------------------------------------------------
    # Tenant-aware victim selection
    # ------------------------------------------------------------------
    def _quota_victim(self, node: TierNode,
                      incoming: PageId) -> TierPageDescriptor | None:
        """One of the incoming page's tenant's own victims, claimed,
        while that tenant holds at least its hard frame share on
        ``node``; ``None`` once it is below it — or when everything it
        holds is pinned or claimed (pinned frames can leave the quota
        transiently breached; that resolves on the next insert)."""
        tenancy = self.tenancy
        pool = node.pool
        tenant = tenancy.tenant_of(incoming)
        quota = tenancy.quota_frames(node.tier, pool.max_entries, tenant)
        held = sum(
            1 for descriptor in pool.descriptors()
            if tenancy.tenant_of(descriptor.page_id) == tenant
        )
        if held < quota:
            return None
        return self._pick_tenant_victim(pool, tenant, avoid=incoming)

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
        the quota phase of :meth:`_cascade` on the insert side).
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
