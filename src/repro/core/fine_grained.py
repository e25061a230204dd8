"""Cache-line-grained and mini-page serving (HyMem, §2.1; Fig. 11/12).

This component owns everything about *partial* DRAM page layouts:

* serving an access on a top-tier copy, loading missing cache lines
  from the NVM backing page on demand — a cache-line page in one call
  (:meth:`FineGrainedOps.serve_cacheline_access`), any copy through
  :meth:`FineGrainedOps.serve_resident_access`,
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

Every access lands here with the line range it touches, and the range
is computed in the frame that uses it; the masks are tested there too,
so a page method is called only to change one.  A load charges its NVM
transfer, the stall, the DRAM copy and the copy CPU in its own frame.
"""

from __future__ import annotations

from ..hardware.cost_model import StorageHierarchy
from ..hardware.device import Device
from ..hardware.simclock import CostAccumulator, ResourceUsage, checked_fp
from ..hardware.specs import CACHE_LINE_SIZE, Tier
from ..pages.cacheline_page import CacheLinePage
from ..pages.mini_page import MINI_PAGE_BYTES, MINI_PAGE_SLOTS, MiniPage, MiniPageOverflow
from ..pages.page import Page, PageId
from .descriptors import SharedPageDescriptor, TierPageDescriptor
from .events import EventBus, EventType
from .tier_chain import TierChain, TierNode

__all__ = ["FineGrainedOps"]

_CPU = CostAccumulator.CPU

#: ``EventType.index`` of what a partial layout publishes: a site calls
#: the bus only when that type has a subscriber.
_FINE_GRAINED_LOAD = EventType.FINE_GRAINED_LOAD.index
_MINI_PAGE_PROMOTION = EventType.MINI_PAGE_PROMOTION.index

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
        self.events = events
        self._emit = events.publish
        self._cost = hierarchy.cost
        #: The fixed CPU costs of partial layouts, quantised once.
        costs = hierarchy.cpu_costs
        self._slot_fp = checked_fp(costs.minipage_slot_ns)
        self._bookkeeping_fp = checked_fp(costs.cacheline_bookkeeping_ns)
        self._migration_fp = checked_fp(costs.migration_ns)
        #: Lines per page and per loading unit, read once.
        self._page_lines = hierarchy.page_size // CACHE_LINE_SIZE
        self._unit_lines = config.loading_unit.lines_per_unit
        #: The two nodes a partial layout spans (``None`` in a chain
        #: without them, which never builds one), and the devices a load
        #: charges.  A fault wrapper is installed before the chain is
        #: built, so the chain's devices are the ones in the path.
        self._dram = chain.get(Tier.DRAM)
        nvm = chain.get(Tier.NVM)
        self._nvm_device = nvm.device if nvm is not None else None
        self._nvm_key = nvm.device.resource_key if nvm is not None else None
        #: A plain NVM device counts a load's transfer; a wrapper's
        #: counters are its delegate's, which a load leaves alone.
        self._nvm_counters = (nvm.device.counters if nvm is not None
                              and isinstance(nvm.device, Device) else None)
        #: ``useful_bytes -> (media bytes, units, transfer_fp,
        #: latency_fp, copy_fp, DRAM write plan)``: what a fine-grained
        #: load charges depends on its size only (:meth:`_load_plan`).
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
        """Serve an access on ``node``'s copy, whatever its layout.

        A cache-line page is :meth:`serve_cacheline_access`'s (which the
        access path calls directly); a mini page overflowing on the
        access is promoted to one and served as one.  The layout is read
        and served under the page's latch on ``node``, which every
        layout change holds, so one access sees one layout.
        """
        with shared._latches[node.tier.rank]:
            content = descriptor.content
            if isinstance(content, MiniPage):
                self._cost.charge_fp(_CPU, self._slot_fp)
                # The lines touched, clamped to the page.
                max_line = self._page_lines - 1
                first = offset // CACHE_LINE_SIZE
                if first > max_line:
                    first = max_line
                last = (offset + nbytes - 1) // CACHE_LINE_SIZE
                if last > max_line:
                    last = max_line
                elif last < first:
                    last = first
                lines = range(first, last + 1)
                try:
                    missing = content.ensure_lines(lines)
                except MiniPageOverflow:
                    pass
                else:
                    if missing:
                        self.charge_fine_grained_load(
                            descriptor.page_id, missing * CACHE_LINE_SIZE)
                    if is_write:
                        for line in lines:
                            content.mark_dirty(line)
                        descriptor.dirty = True
                        node.write(descriptor.page_id, nbytes)
                    else:
                        node.read(descriptor.page_id, nbytes)
                    return
            elif not isinstance(content, CacheLinePage):
                if is_write:
                    descriptor.dirty = True
                    node.write(descriptor.page_id, nbytes)
                else:
                    node.read(descriptor.page_id, nbytes)
                return
        if isinstance(content, MiniPage):
            # Overflowed: promoted (its room made without the latch).
            self.promote_mini_page(shared, descriptor, content)
        self.serve_cacheline_access(node, shared, descriptor, offset, nbytes,
                                    is_write)

    def serve_cacheline_access(self, node: TierNode,
                               shared: SharedPageDescriptor,
                               descriptor: TierPageDescriptor, offset: int,
                               nbytes: int, is_write: bool) -> None:
        """Serve an access on ``node``'s cache-line page: the bookkeeping
        charge, a load of the missing lines' loading units, the dirty
        lines of a write, and the access itself — under the page's latch
        on ``node``, like :meth:`serve_resident_access`, which serves the
        copy instead if it is no longer a cache-line page."""
        with shared._latches[node.tier.rank]:
            content = descriptor.content
            if isinstance(content, CacheLinePage):
                self._cost.charge_fp(_CPU, self._bookkeeping_fp)
                num_lines = content._num_lines
                # The lines touched: accesses that would run off the page
                # end (e.g. a tuple read at a non-zero intra-tuple offset)
                # are clamped to the page.
                first = offset // CACHE_LINE_SIZE
                if first >= num_lines:
                    first = num_lines - 1
                last = (offset + nbytes - 1) // CACHE_LINE_SIZE
                if last >= num_lines:
                    last = num_lines - 1
                elif last < first:
                    last = first
                # Is any touched line not resident yet?
                if ((2 << last) - (1 << first)) & ~content.resident_mask:
                    unit_lines = self._unit_lines
                    # Loads round the range out to whole loading units.
                    unit_first = (first // unit_lines) * unit_lines
                    unit_last = (last // unit_lines + 1) * unit_lines
                    if unit_last > num_lines:
                        unit_last = num_lines
                    newly = content.load_lines(unit_first,
                                               unit_last - unit_first)
                    if newly:
                        self.charge_fine_grained_load(
                            descriptor.page_id, newly * CACHE_LINE_SIZE)
                if is_write:
                    content.mark_dirty(first, last - first + 1)
                    descriptor.dirty = True
                    node.write(descriptor.page_id, nbytes)
                else:
                    node.read(descriptor.page_id, nbytes)
                return
        # Made self-contained by an NVM eviction since the caller looked.
        self.serve_resident_access(node, shared, descriptor, offset, nbytes,
                                   is_write)

    def charge_fine_grained_load(self, page_id: PageId,
                                 useful_bytes: int) -> None:
        """Charge an NVM read of ``page_id``'s lines, with amplification.

        The loading-unit transfers of one load are issued back to back,
        so the device latency is paid once per load operation while the
        media amplification (each unit rounded up to the 256 B media
        block) is paid in full — that asymmetry is exactly what makes
        64 B loading units lose on Optane (Fig. 11).  The loaded lines
        land in the DRAM copy via a CPU copy.

        The four charges — NVM transfer, stall, DRAM copy write, copy
        CPU — commit in this one frame, in that order, spelled out on
        the accumulator's own state as :meth:`Device.read
        <repro.hardware.device.Device.read>` does: every total,
        operation count and slot order is theirs to the unit.  A DRAM
        device that is not a plain :class:`Device` (a fault wrapper) is
        issued its write as a call.
        """
        plan = self._load_plans.get(useful_bytes)
        if plan is None:
            plan = self._load_plan(useful_bytes)
        media_bytes, units, transfer_fp, latency_fp, copy_fp, dram_plan = plan
        cost = self._cost
        usage_of = cost._usage
        with cost._lock:
            usage = usage_of.get(self._nvm_key)
            if usage is None:
                usage = usage_of[self._nvm_key] = ResourceUsage()
            usage.busy_fp += transfer_fp
            usage.operations += 1
            usage.bytes_moved += media_bytes
            cost._total_fp += transfer_fp
            cpu = usage_of.get(_CPU)
            if cpu is None:
                cpu = usage_of[_CPU] = ResourceUsage()
            cpu.busy_fp += latency_fp
            cpu.operations += 1
            cost._total_fp += latency_fp
        counters = self._nvm_counters
        if counters is not None:
            counters.read_ops += units
            counters.read_bytes += useful_bytes
            counters.media_read_bytes += media_bytes
        dram = self._dram.device
        if dram_plan is None:
            dram.write(useful_bytes)
        else:
            dram_media, dram_fp = dram_plan
            counters = dram.counters
            with dram._lock:
                counters.write_ops += 1
                counters.write_bytes += useful_bytes
                counters.media_write_bytes += dram_media
            with cost._lock:
                # A write to byte-addressable memory stalls no worker.
                usage = usage_of.get(dram._key)
                if usage is None:
                    usage = usage_of[dram._key] = ResourceUsage()
                usage.busy_fp += dram_fp
                usage.operations += 1
                usage.bytes_moved += dram_media
                cost._total_fp += dram_fp
        with cost._lock:
            cpu.busy_fp += copy_fp
            cpu.operations += 1
            cost._total_fp += copy_fp
        self.chain.stats.fine_grained_loads += 1
        if self.events._appliers[_FINE_GRAINED_LOAD]:
            self._emit(EventType.FINE_GRAINED_LOAD, page_id, tier=Tier.NVM)

    def _load_plan(self, useful_bytes: int) -> tuple:
        """Derive, validate and memoise the charges of one load size:
        the float steps every load used to repeat, quantised once."""
        unit = self.config.loading_unit
        media_bytes = unit.media_bytes(useful_bytes)
        spec = self._nvm_device.spec
        transfer = media_bytes / spec.rand_read_bw * 1e9
        dram = self._dram.device
        dram_plan = None
        if type(dram) is Device:
            # ``Device.write``'s own plan of this size: its media bytes
            # and transfer, and no stall (byte-addressable memory).
            write = dram._write_plans.get((useful_bytes, False))
            if write is None:
                write = dram._plan(useful_bytes, False, True)
            dram_plan = (write[0], write[1])
        plan = (
            media_bytes,
            unit.units_for_bytes(useful_bytes),
            checked_fp(transfer),
            checked_fp(spec.rand_read_latency_ns),
            checked_fp(self.hierarchy.cpu_costs.copy_ns(useful_bytes)),
            dram_plan,
        )
        if len(self._load_plans) < _MAX_LOAD_PLANS:
            self._load_plans[useful_bytes] = plan
        return plan

    # ------------------------------------------------------------------
    # Fine-grained layout transitions
    # ------------------------------------------------------------------
    def promote_mini_page(self, shared: SharedPageDescriptor,
                          descriptor: TierPageDescriptor,
                          mini: MiniPage) -> None:
        """Transparently promote an overflowing mini page (§2.1).

        The cache-line layout is built from the mini page under the
        page's DRAM latch; the room for its full frame is made without
        it (the evictions take their victims' latches, and two
        promotions each holding their own page's while waiting for the
        other's would deadlock); the layout is swapped in under the
        latch again.  Lines a concurrent access added to the mini page
        meanwhile join it; if a concurrent access promoted the page
        first, its layout stays and takes this one's dirty lines.
        """
        dram = self._dram
        page_size = self.hierarchy.page_size
        latch = shared._latches[dram.tier.rank]
        with latch:
            if descriptor.content is not mini:
                return
            promoted = CacheLinePage(mini.nvm_page, page_size)
            for line in mini.resident_lines():
                promoted.load_lines(line, 1)
            dirty_lines = mini.writeback_lines()
            for line in dirty_lines:
                promoted.mark_dirty(line, 1)
            was_dirty = descriptor.dirty
        # A promotion grows the entry from ~1 KB to a full frame.
        self.space.ensure_space(dram, page_size - MINI_PAGE_BYTES,
                                protect=descriptor.page_id)
        with latch:
            current = descriptor.content
            if current is mini:
                for line in mini.resident_lines():
                    promoted.load_lines(line, 1)
                for line in mini.writeback_lines():
                    promoted.mark_dirty(line, 1)
            elif isinstance(current, CacheLinePage):
                for line in dirty_lines:
                    current.load_lines(line, 1)
                    current.mark_dirty(line, 1)
                return
            if shared._copies[dram.tier.rank] is descriptor:
                dram.pool.resize_entry(descriptor, page_size)
            descriptor.content = promoted
            descriptor.dirty = was_dirty or descriptor.dirty
            self.chain.stats.mini_page_promotions += 1
            if self.events._appliers[_MINI_PAGE_PROMOTION]:
                self._emit(EventType.MINI_PAGE_PROMOTION, descriptor.page_id,
                           tier=Tier.DRAM)
            self._cost.charge_fp(_CPU, self._migration_fp)

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
            self._dram.pool.resize_entry(descriptor, self.hierarchy.page_size)
        descriptor.content = full
        return full

    def install_fine_grained(self, shared: SharedPageDescriptor,
                             nvm_content: Page, offset: int,
                             nbytes: int) -> TierPageDescriptor:
        """Create a cache-line-grained (or mini) DRAM view of an NVM page."""
        # The lines touched, clamped to the page.
        max_line = self._page_lines - 1
        first = offset // CACHE_LINE_SIZE
        if first > max_line:
            first = max_line
        last = (offset + nbytes - 1) // CACHE_LINE_SIZE
        if last > max_line:
            last = max_line
        elif last < first:
            last = first
        if self.config.mini_pages and last - first < MINI_PAGE_SLOTS:
            content: CacheLinePage | MiniPage = MiniPage(nvm_content)
            entry_bytes = MINI_PAGE_BYTES
            loaded = content.ensure_lines(range(first, last + 1))
        else:
            content = CacheLinePage(nvm_content, self.hierarchy.page_size)
            entry_bytes = self.hierarchy.page_size
            unit_lines = self._unit_lines
            # The loading units the touched lines fall in.
            unit_first = (first // unit_lines) * unit_lines
            unit_last = (last // unit_lines + 1) * unit_lines
            if unit_last > self._page_lines:
                unit_last = self._page_lines
            loaded = content.load_lines(unit_first, unit_last - unit_first)
        if loaded:
            self.charge_fine_grained_load(shared.page_id,
                                          loaded * CACHE_LINE_SIZE)
        return self.space.insert_with_space(self._dram, shared, content,
                                            entry_bytes)
