"""FineGrainedOps: cache-line/mini-page serving, constructed standalone."""

import random

from conftest import EventRecorder, make_core

from repro.core.buffer_manager import BufferManagerConfig
from repro.core.events import EventType
from repro.core.fine_grained import FineGrainedOps
from repro.core.policy import SPITFIRE_EAGER
from repro.hardware.specs import CACHE_LINE_SIZE, PAGE_SIZE, Tier
from repro.pages.cacheline_page import CacheLinePage
from repro.pages.mini_page import MINI_PAGE_SLOTS, MiniPage
from repro.pages.page import Page


def make_fine_core(mini_pages: bool = False):
    config = BufferManagerConfig(fine_grained=True, mini_pages=mini_pages)
    return make_core(policy=SPITFIRE_EAGER, config=config)


class TestIndependentConstruction:
    def test_fine_grained_builds_without_facade(self):
        core = make_fine_core()
        assert isinstance(core.fine, FineGrainedOps)

    def test_line_span_covers_the_bytes_and_clamps(self):
        # A mini page caches exactly the lines an access touches.
        core = make_fine_core(mini_pages=True)
        page = core.store.allocate().page_id
        core.access.access(page, 0, 64, is_write=False)
        mini = core.table.get(page).copy_on(Tier.DRAM).content
        assert mini.resident_lines() == [0]
        core.access.access(page, 0, 129, is_write=False)
        assert mini.resident_lines() == [0, 1, 2]
        last = PAGE_SIZE // CACHE_LINE_SIZE - 1
        # Offsets past the page end clamp to the last line.
        core.access.access(page, PAGE_SIZE + 512, 64, is_write=False)
        assert mini.resident_lines() == [0, 1, 2, last]
        # So does an install at such an offset.
        other = core.store.allocate().page_id
        core.access.access(other, PAGE_SIZE + 512, 64, is_write=False)
        assert core.table.get(other).copy_on(Tier.DRAM) \
            .content.resident_lines() == [last]


class TestCacheLineServing:
    def test_migration_installs_partial_view(self):
        core = make_fine_core()
        page = core.store.allocate().page_id
        core.access.access(page, 0, 64, is_write=False)
        descriptor = core.table.get(page).copy_on(Tier.DRAM)
        content = descriptor.content
        assert isinstance(content, CacheLinePage)
        assert 0 < content.resident_count < content.num_lines

    def test_later_access_loads_missing_lines(self):
        core = make_fine_core()
        loads = core.events.subscribe(
            EventRecorder({EventType.FINE_GRAINED_LOAD})).events
        page = core.store.allocate().page_id
        core.access.access(page, 0, 64, is_write=False)
        first = len(loads)
        assert first > 0
        core.access.access(page, 8192, 64, is_write=False)
        assert len(loads) > first

    def test_every_load_names_the_loaded_page(self):
        """A load event carries the page whose lines it loaded, like
        every other event's ``page_id`` — never a placeholder."""
        core = make_fine_core(mini_pages=True)
        loads = core.events.subscribe(
            EventRecorder({EventType.FINE_GRAINED_LOAD})).events
        pages = [core.store.allocate().page_id for _ in range(12)]
        rng = random.Random(3)
        accessed = set()
        for _ in range(400):
            page = pages[rng.randrange(len(pages))]
            accessed.add(page)
            core.access.access(page, rng.randrange(PAGE_SIZE - 256),
                               rng.choice((64, 256, 1024)),
                               is_write=rng.random() < 0.3)
        assert len(loads) > 50
        assert {event.page_id for event in loads} <= accessed
        assert all(event.page_id != -1 for event in loads)

    def test_charge_fine_grained_load_amplifies_to_media_blocks(self):
        core = make_fine_core()
        device = core.hierarchy.device(Tier.NVM)
        before = device.snapshot_counters()
        core.fine.charge_fine_grained_load(0, 64)
        after = device.snapshot_counters()
        assert after.read_bytes - before.read_bytes == 64
        # Optane reads are amplified to its 256 B media granularity.
        assert after.media_read_bytes - before.media_read_bytes == 256


class TestMiniPages:
    def test_small_access_creates_mini_page(self):
        core = make_fine_core(mini_pages=True)
        page = core.store.allocate().page_id
        core.access.access(page, 0, 64, is_write=False)
        descriptor = core.table.get(page).copy_on(Tier.DRAM)
        assert isinstance(descriptor.content, MiniPage)

    def test_overflow_promotes_to_cacheline_page(self):
        core = make_fine_core(mini_pages=True)
        promotions = core.events.subscribe(
            EventRecorder({EventType.MINI_PAGE_PROMOTION})).events
        page = core.store.allocate().page_id
        core.access.access(page, 0, 64, is_write=False)
        node = core.chain.node(Tier.DRAM)
        descriptor = core.table.get(page).copy_on(Tier.DRAM)
        # Touch more distinct lines than the mini page has slots.
        wide = (MINI_PAGE_SLOTS + 2) * CACHE_LINE_SIZE
        core.fine.serve_resident_access(node, core.table.get(page),
                                        descriptor, 0, wide, False)
        assert isinstance(descriptor.content, CacheLinePage)
        assert len(promotions) == 1
        # Occupancy accounting grew to a full frame.
        assert node.pool.used_bytes == PAGE_SIZE

    def test_promote_to_full_residency_yields_plain_page(self):
        core = make_fine_core(mini_pages=True)
        page = core.store.allocate().page_id
        core.access.access(page, 0, 64, is_write=False)
        descriptor = core.table.get(page).copy_on(Tier.DRAM)
        content = core.fine.promote_to_full_residency(descriptor)
        assert isinstance(content, Page)
        assert descriptor.content is content
        assert core.chain.node(Tier.DRAM).pool.used_bytes == PAGE_SIZE
