"""The read/write access path: the page-motion pipeline (§3.1–§3.4).

This component walks the tier chain for every logical access:

* top-down hit scan; on a non-top hit, one promotion draw per edge
  climbs the page toward the top (§3.1/§3.2, :meth:`AccessPath.climb`),
* a full miss fetches from SSD bottom-up: each non-top node draws its
  fetch-admission knob, slowest first, and the first admit wins (§3.3,
  :meth:`AccessPath.fetch_from_ssd`); after the install, promotion
  draws may carry the page further up (§3.4's path ③+①),
* accesses landing below the top are served *in place* — the DRAM
  bypass (§3.1/§3.2, :meth:`AccessPath.serve_direct`): the CPU works
  on the tier-resident data directly, with a persist barrier when the
  tier is durable,
* upward migrations copy a full page one edge up after waiting for
  readers of the lower copy (§5.2, :meth:`AccessPath.migrate_up`), or
  build a cache-line/mini-page view when fine-grained loading is on,
* a copy on the volatile top is served where the walk finds it: a full
  page here, a partial layout by one
  :class:`~repro.core.fine_grained.FineGrainedOps` call.

Collaborators are explicit: chain, mapping table, migration engine,
SSD store, event bus, hierarchy, and the shared
:class:`~repro.core.policy.PolicySlot` at construction; the space
manager (frame reservations) and fine-grained ops (partial layouts)
via :meth:`bind`.
"""

from __future__ import annotations

from typing import NamedTuple

from ..hardware.cost_model import StorageHierarchy
from ..hardware.simclock import CostAccumulator, checked_fp
from ..hardware.specs import Tier
from ..pages.cacheline_page import CacheLinePage
from ..pages.page import Page, PageId
from .descriptors import SharedPageDescriptor, TierPageDescriptor
from .events import EventBus, EventType
from .mapping_table import MappingTable
from .migration import MigrationEngine, MigrationOp
from .policy import MigrationPolicy, PolicySlot
from .ssd_store import SsdStore
from .tier_chain import TierChain, TierNode

__all__ = ["AccessPath", "AccessResult"]

_CPU = CostAccumulator.CPU
#: ``EventType.index`` of what an access publishes: a site calls the
#: bus only when that type has a subscriber.
_OP_READ = EventType.OP_READ.index
_OP_WRITE = EventType.OP_WRITE.index
_HIT = EventType.HIT.index
_MISS = EventType.MISS.index
_INSTALL = EventType.INSTALL.index
_MIGRATE_UP = EventType.MIGRATE_UP.index
_DIRECT_READ = EventType.DIRECT_READ.index
_DIRECT_WRITE = EventType.DIRECT_WRITE.index


class AccessResult(NamedTuple):
    """Outcome of one buffer-manager read or write."""

    page_id: PageId
    served_tier: Tier
    #: True when the page was already buffered (no SSD fetch).
    hit: bool
    #: True when the access was served in place below the volatile top
    #: (:meth:`AccessPath.serve_direct`, the DRAM bypass).
    bypassed_dram: bool = False


#: Builds an :class:`AccessResult` from its four fields without the
#: named tuple's Python-level ``__new__``: every access returns one.
_result = tuple.__new__


class AccessPath:
    """The chain walk serving every logical read and write."""

    def __init__(self, chain: TierChain, table: MappingTable,
                 hierarchy: StorageHierarchy, engine: MigrationEngine,
                 store: SsdStore, events: EventBus,
                 policy_slot: PolicySlot, config) -> None:
        self.chain = chain
        self.table = table
        self.hierarchy = hierarchy
        self.engine = engine
        self.store = store
        self.policy_slot = policy_slot
        self.config = config
        self.events = events
        self._emit = events.publish
        self._cost = hierarchy.cost
        #: The CPU costs this path charges, quantised once: the
        #: per-request lookup, and a full-page upward migration's
        #: latching overhead and copy.
        costs = hierarchy.cpu_costs
        self._lookup_fp = checked_fp(costs.lookup_ns)
        self._migration_fp = checked_fp(costs.migration_ns)
        self._page_copy_fp = checked_fp(costs.copy_ns(hierarchy.page_size))
        top = chain.top
        #: The top node when hits on it are served in DRAM-like memory
        #: (volatile, index 0); a full page found there needs no walk.
        self._volatile_top = (
            top if top is not None and not top.persistent else None
        )
        #: Bound by :meth:`bind`: installs reserve frames through the
        #: space manager; partial layouts are served by fine-grained ops.
        self.space = None
        self.fine = None

    def bind(self, space, fine) -> None:
        self.space = space
        self.fine = fine

    # ------------------------------------------------------------------
    # The generic chain walk
    # ------------------------------------------------------------------
    def access(self, page_id: PageId, offset: int, nbytes: int,
               is_write: bool) -> AccessResult:
        """The generic chain walk shared by ``read`` and ``write``.

        Top-down hit scan.  A hit on a volatile top node — what every
        workload is mostly made of — is served where it is found: a
        full page in this frame, a partial layout by one fine-grained
        call.
        On a non-top hit, one promotion draw per edge climbs the page
        toward the top (§3.1/§3.2).  A full miss goes to
        :meth:`fetch_from_ssd`.
        """
        events = self.events
        stats = self.chain.stats
        # Each publish is made only when its type has a subscriber;
        # the check reads the bus's current tuples, so an observer
        # attached between ops sees everything from the next op on.
        if is_write:
            stats.writes += 1
            if events._appliers[_OP_WRITE]:
                self._emit(EventType.OP_WRITE, page_id)
        else:
            stats.reads += 1
            if events._appliers[_OP_READ]:
                self._emit(EventType.OP_READ, page_id)
        # Charged after the op's publish, so an observer bracketing ops
        # at OP_READ/OP_WRITE counts each lookup in its own op.
        self._cost.charge_fp(_CPU, self._lookup_fp)
        shared = self.table.get_or_create(page_id)
        for node in self.chain.nodes:
            tier = node.tier
            # ``shared.copy_on(tier)``, spelled out: every access
            # reads this pointer, lock-free (a hit that acts on more
            # than the flat case below revalidates under the latch).
            descriptor = shared._copies[tier.rank]
            if descriptor is None:
                continue
            node.pool.replacer.record_access(descriptor.frame_index)
            if tier is Tier.DRAM:
                stats.dram_hits += 1
            else:
                stats.nvm_hits += 1
            if events._appliers[_HIT]:
                self._emit(EventType.HIT, page_id, tier)
            if node is self._volatile_top:
                # Nothing can climb, and a full page misses no line.
                content = descriptor.content
                if isinstance(content, Page):
                    if is_write:
                        descriptor.dirty = True
                        node.write(page_id, nbytes)
                    else:
                        node.read(page_id, nbytes)
                elif isinstance(content, CacheLinePage):
                    self.fine.serve_cacheline_access(
                        node, shared, descriptor, offset, nbytes,
                        is_write)
                else:
                    self.fine.serve_resident_access(
                        node, shared, descriptor, offset, nbytes,
                        is_write)
                return _result(AccessResult, (page_id, tier, True, False))
            # Atomic attribute read; ``set_policy`` replaces the
            # whole object, so skipping the slot's lock is race-free.
            policy = self.policy_slot.current
            promote_op = (
                MigrationOp.PROMOTE_WRITE if is_write
                else MigrationOp.PROMOTE_READ
            )
            node, descriptor = self.climb(
                shared, node, descriptor, promote_op, offset, nbytes, policy
            )
            return self.serve(node, shared, descriptor, offset, nbytes,
                              is_write, hit=True)

        return self.fetch_from_ssd(shared, page_id, offset, nbytes,
                                   is_write)

    def climb(self, shared: SharedPageDescriptor, node: TierNode,
              descriptor: TierPageDescriptor, promote_op: MigrationOp,
              offset: int, nbytes: int,
              policy: MigrationPolicy) -> tuple[TierNode, TierPageDescriptor]:
        """Chained one-edge promotion draws from ``node`` toward the top."""
        nodes = self.chain.nodes
        while node.index > 0:
            upper = nodes[node.index - 1]
            if not self.engine.decide(node.promote_edge, promote_op,
                                      shared.page_id, policy):
                break
            descriptor = self.migrate_up(shared, descriptor, node, upper,
                                         offset, nbytes)
            node = upper
        return node, descriptor

    def serve(self, node: TierNode, shared: SharedPageDescriptor,
              descriptor: TierPageDescriptor, offset: int, nbytes: int,
              is_write: bool, hit: bool) -> AccessResult:
        """Serve an access on whichever node the walk landed on: the
        volatile top as :meth:`access` serves its hits, any other node in
        place (:meth:`serve_direct`)."""
        if node is self._volatile_top:
            content = descriptor.content
            if isinstance(content, Page):
                if is_write:
                    descriptor.dirty = True
                    node.write(shared.page_id, nbytes)
                else:
                    node.read(shared.page_id, nbytes)
            elif isinstance(content, CacheLinePage):
                self.fine.serve_cacheline_access(node, shared, descriptor,
                                                 offset, nbytes, is_write)
            else:
                self.fine.serve_resident_access(node, shared, descriptor,
                                                offset, nbytes, is_write)
            return _result(AccessResult, (shared.page_id, node.tier, hit,
                                          False))
        self.serve_direct(node, descriptor, nbytes, is_write)
        return _result(AccessResult, (shared.page_id, node.tier, hit, True))

    def serve_direct(self, node: TierNode, descriptor: TierPageDescriptor,
                     nbytes: int, is_write: bool) -> None:
        """Operate on a lower-tier copy in place — the DRAM bypass (§3.1,
        §3.2): the CPU works on the tier-resident data directly, with a
        persist barrier when the tier is durable."""
        page_id = descriptor.page_id
        nvm = node.tier is Tier.NVM
        if is_write:
            node.write(page_id, nbytes)
            if node.persistent:
                node.device.persist_barrier()
            descriptor.mark_dirty()
            if nvm:
                self.chain.stats.nvm_direct_writes += 1
            if self.events._appliers[_DIRECT_WRITE]:
                self._emit(EventType.DIRECT_WRITE, page_id, tier=node.tier)
        else:
            node.read(page_id, nbytes)
            if nvm:
                self.chain.stats.nvm_direct_reads += 1
            if self.events._appliers[_DIRECT_READ]:
                self._emit(EventType.DIRECT_READ, page_id, tier=node.tier)

    # ------------------------------------------------------------------
    # SSD miss path
    # ------------------------------------------------------------------
    def fetch_from_ssd(self, shared: SharedPageDescriptor, page_id: PageId,
                       offset: int, nbytes: int,
                       is_write: bool) -> AccessResult:
        """Bottom-up fetch admission over the chain (§3.3).

        Each non-top node draws its fetch-admission knob, slowest first;
        the first admit wins.  The top node is the unconditional fallback
        — a fetch must land somewhere.  After the install, promotion
        draws may carry the page further up (§3.4's path ③+①).  A full
        page landed on the volatile top is served there the way a top hit
        is; anything else as :meth:`serve` serves it.
        """
        self.chain.stats.ssd_fetches += 1
        if self.events._appliers[_MISS]:
            self._emit(EventType.MISS, page_id, tier=Tier.SSD)
        policy = self.policy_slot.current
        durable = self.store.read_page(page_id)  # charges the SSD read

        landed: TierNode | None = None
        for node in reversed(self.chain.nodes):
            if node.index == 0:
                landed = node
                break
            if self.engine.decide(node.fetch_edge, MigrationOp.FETCH_ADMIT,
                                  page_id, policy):
                landed = node
                break
        if landed is None:
            # Degenerate bufferless configuration: operate straight on SSD.
            if is_write:
                self.store.write_page(durable)
            return _result(AccessResult, (page_id, Tier.SSD, False, False))

        descriptor = self.install(landed, shared, durable.clone())
        if landed is self._volatile_top \
                and isinstance(descriptor.content, Page):
            if is_write:
                descriptor.dirty = True
                landed.write(page_id, nbytes)
            else:
                landed.read(page_id, nbytes)
            return _result(AccessResult, (page_id, landed.tier, False, False))
        if landed.index:
            promote_op = (MigrationOp.PROMOTE_WRITE if is_write
                          else MigrationOp.PROMOTE_READ)
            landed, descriptor = self.climb(
                shared, landed, descriptor, promote_op, offset, nbytes, policy
            )
        return self.serve(landed, shared, descriptor, offset, nbytes,
                          is_write, hit=False)

    def install(self, node: TierNode, shared: SharedPageDescriptor,
                content: Page) -> TierPageDescriptor:
        """Place a full page copy into a node's pool, evicting as needed."""
        tier = node.tier
        rank = tier.rank
        # ``shared.latched(tier)`` and ``copy_on(tier)``, spelled out.
        with shared._latches[rank]:
            descriptor = shared._copies[rank]
            installed = descriptor is None
            if installed:
                descriptor = self.space.insert_with_space(
                    node, shared, content, self.hierarchy.page_size
                )
        if installed:
            # Page installs land at random frame locations: persistent
            # memory pays its random-write bandwidth (6 GB/s on Optane);
            # volatile tiers do not tell the two apart.
            node.write(content.page_id, self.hierarchy.page_size,
                       sequential=not node.persistent)
            if node.persistent:
                node.device.persist_barrier()
        # Either way the fetch counts as an install toward the tier — a
        # concurrent miss on the same page may have installed it first.
        stats = self.chain.stats
        if tier is Tier.DRAM:
            stats.ssd_to_dram += 1
        else:
            stats.ssd_to_nvm += 1
        if self.events._appliers[_INSTALL]:
            self._emit(EventType.INSTALL, content.page_id, tier=tier,
                       src=Tier.SSD)
        return descriptor

    # ------------------------------------------------------------------
    # Upward migration (§3.1, §5.2)
    # ------------------------------------------------------------------
    def migrate_up(self, shared: SharedPageDescriptor,
                   lower_desc: TierPageDescriptor, lower: TierNode,
                   upper: TierNode, offset: int,
                   nbytes: int) -> TierPageDescriptor:
        # ``shared.copy_on`` and ``shared.latched(upper.tier,
        # lower.tier)``, spelled out: the upper node's latch comes first
        # in the canonical (top-down) order.
        copies = shared._copies
        upper_rank = upper.tier.rank
        existing = copies[upper_rank]
        if existing is not None:
            upper.pool.replacer.record_access(existing.frame_index)
            return existing
        lower_rank = lower.tier.rank
        latches = shared._latches
        with latches[upper_rank], latches[lower_rank]:
            # §5.2: wait for readers of the lower copy so the upper copy
            # cannot miss concurrent modifications.
            pinned = copies[lower_rank]
            if pinned is not None and pinned.pin_count > 0:
                shared.wait_for_unpinned(lower.tier)
            existing = copies[upper_rank]
            if existing is not None:
                return existing
            cost = self._cost
            cost.charge_fp(_CPU, self._migration_fp)
            lower_content = lower_desc.content
            if not isinstance(lower_content, Page):  # pragma: no cover - defensive
                raise RuntimeError("lower-tier frames always hold full pages")
            if self.config.fine_grained and not lower_desc.claimed \
                    and copies[lower_rank] is lower_desc:
                # A partial copy needs its backing page to stay: a lower
                # copy an eviction has claimed (or removed) is copied up
                # whole instead — which only a concurrent eviction makes.
                descriptor = self.fine.install_fine_grained(shared, lower_content,
                                                            offset, nbytes)
            else:
                lower.read(shared.page_id, self.hierarchy.page_size)
                cost.charge_fp(_CPU, self._page_copy_fp)
                descriptor = self.space.insert_with_space(
                    upper, shared, lower_content.clone(),
                    self.hierarchy.page_size,
                )
                upper.write(shared.page_id, self.hierarchy.page_size,
                            sequential=True)
            self.chain.stats.nvm_to_dram += 1
            if self.events._appliers[_MIGRATE_UP]:
                self._emit(EventType.MIGRATE_UP, shared.page_id,
                           tier=upper.tier, src=lower.tier)
            return descriptor
