"""Cache-line-grained and mini-page serving (HyMem, §2.1; Fig. 11/12).

This component owns everything about *partial* DRAM page layouts:

* serving an access on a top-tier copy, loading missing cache lines
  from the NVM backing page on demand (:meth:`FineGrainedOps.serve_resident_access`),
* the cost model of a fine-grained load — device latency once per load,
  media amplification in full (:meth:`FineGrainedOps.charge_fine_grained_load`),
  which is exactly what makes 64 B loading units lose on Optane (Fig. 11),
* mini-page overflow promotion to a full cache-line page (§2.1,
  :meth:`FineGrainedOps.promote_mini_page`),
* materialising a fully resident plain page when the NVM backing page
  disappears (:meth:`FineGrainedOps.promote_to_full_residency`),
* creating the initial cache-line / mini-page DRAM view on an NVM→DRAM
  migration (:meth:`FineGrainedOps.install_fine_grained`).

The component takes the tier chain, hierarchy, event bus, and layout
configuration explicitly; frame reservations go through the
:class:`~repro.core.space_manager.SpaceManager` bound via :meth:`bind`
(the two are mutually recursive: loads may trigger evictions, and
evicting a partial layout needs :meth:`promote_to_full_residency`).
"""

from __future__ import annotations

from ..hardware.cost_model import StorageHierarchy
from ..hardware.device import Device
from ..hardware.simclock import CostAccumulator, checked_fp
from ..hardware.specs import CACHE_LINE_SIZE, Tier
from ..pages.cacheline_page import CacheLinePage
from ..pages.mini_page import MINI_PAGE_BYTES, MINI_PAGE_SLOTS, MiniPage, MiniPageOverflow
from ..pages.page import Page, PageId
from .descriptors import SharedPageDescriptor, TierPageDescriptor
from .events import EventBus, EventType
from .tier_chain import TierChain, TierNode

__all__ = ["FineGrainedOps"]

#: Load sizes whose charges are memoised; further ones are derived per
#: load.  Loads are whole loading units, so a run sees a few dozen.
_MAX_LOAD_PLANS = 256


class FineGrainedOps:
    """Partial-layout serving, loading, and layout transitions."""

    def __init__(self, chain: TierChain, hierarchy: StorageHierarchy,
                 events: EventBus, config) -> None:
        self.chain = chain
        self.hierarchy = hierarchy
        self.config = config
        self._emit = events.publish
        self._cost = hierarchy.cost
        #: The fixed CPU costs of partial layouts, quantised once.
        costs = hierarchy.cpu_costs
        self._slot_fp = checked_fp(costs.minipage_slot_ns)
        self._bookkeeping_fp = checked_fp(costs.cacheline_bookkeeping_ns)
        self._migration_fp = checked_fp(costs.migration_ns)
        #: ``useful_bytes -> (media bytes, units, transfer_fp,
        #: latency_fp, copy_fp)``: what a fine-grained load charges
        #: depends on its size only (:meth:`_load_plan`).
        self._load_plans: dict[int, tuple] = {}
        #: Bound by :meth:`bind`; evictions triggered by layout growth
        #: (mini-page promotion, install) go through the space manager.
        self.space = None

    def bind(self, space) -> None:
        self.space = space

    # ------------------------------------------------------------------
    # Serving accesses on top-tier copies (handles fine-grained layouts)
    # ------------------------------------------------------------------
    def serve_resident_access(self, node: TierNode, shared: SharedPageDescriptor,
                              descriptor: TierPageDescriptor, offset: int,
                              nbytes: int, is_write: bool) -> None:
        content = descriptor.content
        if isinstance(content, MiniPage):
            self._cost.charge_fp(CostAccumulator.CPU, self._slot_fp)
            lines = self.lines_for(offset, nbytes)
            try:
                missing = content.ensure_lines(lines)
            except MiniPageOverflow:
                descriptor = self.promote_mini_page(shared, descriptor)
                content = descriptor.content
                self.serve_cacheline_access(content, offset, nbytes, is_write)
                descriptor.dirty = descriptor.dirty or is_write
                self._finish_resident_access(node, descriptor, nbytes, is_write)
                return
            if missing:
                self.charge_fine_grained_load(descriptor.page_id,
                                              missing * CACHE_LINE_SIZE)
            if is_write:
                for line in lines:
                    content.mark_dirty(line)
                descriptor.mark_dirty()
        elif isinstance(content, CacheLinePage):
            self.serve_cacheline_access(content, offset, nbytes, is_write)
            if is_write:
                descriptor.mark_dirty()
        else:
            if is_write:
                descriptor.mark_dirty()
        self._finish_resident_access(node, descriptor, nbytes, is_write)

    def _finish_resident_access(self, node: TierNode,
                                descriptor: TierPageDescriptor,
                                nbytes: int, is_write: bool) -> None:
        if is_write:
            node.write(descriptor.page_id, nbytes)
        else:
            node.read(descriptor.page_id, nbytes)

    def serve_cacheline_access(self, content: CacheLinePage, offset: int,
                               nbytes: int, is_write: bool) -> None:
        self._cost.charge_fp(CostAccumulator.CPU, self._bookkeeping_fp)
        first_line = min(offset // CACHE_LINE_SIZE, content.num_lines - 1)
        nlines = max(1, (offset + nbytes - 1) // CACHE_LINE_SIZE - first_line + 1)
        # Accesses that would run off the page end (e.g. a tuple read at
        # a non-zero intra-tuple offset) are clamped to the page.
        nlines = min(nlines, content.num_lines - first_line)
        missing = content.missing_lines(first_line, nlines)
        if missing:
            unit_lines = self.config.loading_unit.lines_per_unit
            # Loads round the range out to whole loading units.
            unit_first = (first_line // unit_lines) * unit_lines
            unit_last = min(
                content.num_lines,
                ((first_line + nlines + unit_lines - 1) // unit_lines) * unit_lines,
            )
            newly = content.load_lines(unit_first, unit_last - unit_first)
            if newly:
                self.charge_fine_grained_load(content.page_id,
                                              newly * CACHE_LINE_SIZE)
        if is_write:
            content.mark_dirty(first_line, nlines)

    def charge_fine_grained_load(self, page_id: PageId,
                                 useful_bytes: int) -> None:
        """Charge an NVM read of ``page_id``'s lines, with amplification.

        The loading-unit transfers of one load are issued back to back,
        so the device latency is paid once per load operation while the
        media amplification (each unit rounded up to the 256 B media
        block) is paid in full — that asymmetry is exactly what makes
        64 B loading units lose on Optane (Fig. 11).
        """
        plan = self._load_plans.get(useful_bytes)
        if plan is None:
            plan = self._load_plan(useful_bytes)
        media_bytes, units, transfer_fp, latency_fp, copy_fp = plan
        # The devices are looked up per load, not memoised, so a fault
        # wrapper installed on the hierarchy stays in the path.
        devices = self.hierarchy.devices
        device = devices[Tier.NVM]
        device.cost.charge_fp(device.resource_key, transfer_fp, media_bytes)
        cost = self._cost
        cost.charge_fp(CostAccumulator.CPU, latency_fp)
        if isinstance(device, Device):
            counters = device.counters
            counters.read_ops += units
            counters.read_bytes += useful_bytes
            counters.media_read_bytes += media_bytes
        # The loaded lines land in the DRAM copy via a CPU copy.
        devices[Tier.DRAM].write(useful_bytes)
        cost.charge_fp(CostAccumulator.CPU, copy_fp)
        self.chain.stats.fine_grained_loads += 1
        self._emit(EventType.FINE_GRAINED_LOAD, page_id, tier=Tier.NVM)

    def _load_plan(self, useful_bytes: int) -> tuple:
        """Derive, validate and memoise the charges of one load size:
        the float steps every load used to repeat, quantised once."""
        unit = self.config.loading_unit
        media_bytes = unit.media_bytes(useful_bytes)
        spec = self.hierarchy.device(Tier.NVM).spec
        transfer = media_bytes / spec.rand_read_bw * 1e9
        plan = (
            media_bytes,
            unit.units_for_bytes(useful_bytes),
            checked_fp(transfer),
            checked_fp(spec.rand_read_latency_ns),
            checked_fp(self.hierarchy.cpu_costs.copy_ns(useful_bytes)),
        )
        if len(self._load_plans) < _MAX_LOAD_PLANS:
            self._load_plans[useful_bytes] = plan
        return plan

    def lines_for(self, offset: int, nbytes: int) -> list[int]:
        max_line = self.hierarchy.page_size // CACHE_LINE_SIZE - 1
        first = min(offset // CACHE_LINE_SIZE, max_line)
        last = min((offset + max(1, nbytes) - 1) // CACHE_LINE_SIZE, max_line)
        return list(range(first, last + 1))

    # ------------------------------------------------------------------
    # Fine-grained layout transitions
    # ------------------------------------------------------------------
    def promote_mini_page(self, shared: SharedPageDescriptor,
                          descriptor: TierPageDescriptor) -> TierPageDescriptor:
        """Transparently promote an overflowing mini page (§2.1)."""
        dram = self.chain.node(Tier.DRAM)
        mini: MiniPage = descriptor.content  # type: ignore[assignment]
        promoted = CacheLinePage(mini.nvm_page, self.hierarchy.page_size)
        resident = mini.resident_lines()
        for line in resident:
            promoted.load_lines(line, 1)
        for line in mini.writeback_lines():
            promoted.mark_dirty(line, 1)
        was_dirty = descriptor.dirty
        # A promotion grows the entry from ~1 KB to a full frame; make room.
        extra = self.hierarchy.page_size - MINI_PAGE_BYTES
        self.space.ensure_space(dram, extra, protect=descriptor.page_id)
        dram.pool.resize_entry(descriptor, self.hierarchy.page_size)
        descriptor.content = promoted
        descriptor.dirty = was_dirty
        self.chain.stats.mini_page_promotions += 1
        self._emit(EventType.MINI_PAGE_PROMOTION, descriptor.page_id,
                   tier=Tier.DRAM)
        self._cost.charge_fp(CostAccumulator.CPU, self._migration_fp)
        return descriptor

    def promote_to_full_residency(self, descriptor: TierPageDescriptor) -> Page:
        """Materialise a fully resident plain page from a partial layout.

        Needed when the NVM backing page goes away (NVM eviction) or when
        the partial DRAM copy itself is evicted dirty without an NVM
        admission: remaining lines are loaded from NVM first.
        """
        content = descriptor.content
        if isinstance(content, MiniPage):
            missing_bytes = (
                self.hierarchy.page_size - content.count * CACHE_LINE_SIZE
            )
            backing = content.nvm_page
        elif isinstance(content, CacheLinePage):
            missing_bytes = self.hierarchy.page_size - content.resident_bytes()
            backing = content.nvm_page
        else:
            return content
        if missing_bytes > 0:
            self.charge_fine_grained_load(descriptor.page_id, missing_bytes)
        full = backing.clone()
        if descriptor.tier is Tier.DRAM and isinstance(content, MiniPage):
            self.chain.node(Tier.DRAM).pool.resize_entry(
                descriptor, self.hierarchy.page_size
            )
        descriptor.content = full
        return full

    def install_fine_grained(self, shared: SharedPageDescriptor,
                             nvm_content: Page, offset: int,
                             nbytes: int) -> TierPageDescriptor:
        """Create a cache-line-grained (or mini) DRAM view of an NVM page."""
        lines = self.lines_for(offset, nbytes)
        use_mini = self.config.mini_pages and len(lines) <= MINI_PAGE_SLOTS
        if use_mini:
            content: CacheLinePage | MiniPage = MiniPage(nvm_content)
            entry_bytes = MINI_PAGE_BYTES
            loaded = content.ensure_lines(lines)
        else:
            content = CacheLinePage(nvm_content, self.hierarchy.page_size)
            entry_bytes = self.hierarchy.page_size
            loaded = 0
            unit_lines = self.config.loading_unit.lines_per_unit
            first = (lines[0] // unit_lines) * unit_lines
            last = min(
                content.num_lines,
                ((lines[-1] + unit_lines) // unit_lines) * unit_lines,
            )
            loaded = content.load_lines(first, last - first)
        if loaded:
            self.charge_fine_grained_load(shared.page_id,
                                          loaded * CACHE_LINE_SIZE)
        return self.space.insert_with_space(self.chain.node(Tier.DRAM),
                                            shared, content, entry_bytes)
