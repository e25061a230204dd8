"""Cache-line-grained and mini-page layouts driven through the buffer manager."""

import pytest

from conftest import make_bm

from repro.core.buffer_manager import BufferManagerConfig
from repro.core.policy import SPITFIRE_EAGER
from repro.hardware.specs import CACHE_LINE_SIZE, PAGE_SIZE, Tier
from repro.pages.cacheline_page import CacheLinePage
from repro.pages.granularity import LoadingUnit
from repro.pages.mini_page import MINI_PAGE_BYTES, MiniPage


def fine_bm(mini_pages: bool = False, granularity: int = 256, **kwargs):
    config = BufferManagerConfig(
        fine_grained=True,
        mini_pages=mini_pages,
        loading_unit=LoadingUnit(granularity),
    )
    return make_bm(policy=SPITFIRE_EAGER, config=config, **kwargs)


class TestConfigValidation:
    def test_mini_requires_fine_grained(self):
        with pytest.raises(ValueError):
            BufferManagerConfig(fine_grained=False, mini_pages=True)

    def test_fetch_page_rejected_with_fine_grained(self):
        bm = fine_bm()
        page = bm.allocate_page()
        with pytest.raises(RuntimeError):
            bm.fetch_page(page)


class TestCacheLinePages:
    def test_nvm_promotion_creates_partial_page(self):
        bm = fine_bm()
        page = bm.allocate_page()
        bm.read(page, offset=0, nbytes=CACHE_LINE_SIZE)
        descriptor = bm.table.get(page).copy_on(Tier.DRAM)
        assert isinstance(descriptor.content, CacheLinePage)
        # Only the accessed loading unit is resident, not the whole page.
        assert 0 < descriptor.content.resident_count < 256

    def test_later_access_loads_more_lines(self):
        bm = fine_bm()
        page = bm.allocate_page()
        bm.read(page, offset=0, nbytes=CACHE_LINE_SIZE)
        resident_before = bm.table.get(page).copy_on(Tier.DRAM).content.resident_count
        bm.read(page, offset=8192, nbytes=CACHE_LINE_SIZE)
        resident_after = bm.table.get(page).copy_on(Tier.DRAM).content.resident_count
        assert resident_after > resident_before
        assert bm.stats.fine_grained_loads >= 2

    def test_resident_access_loads_nothing(self):
        bm = fine_bm()
        page = bm.allocate_page()
        bm.read(page, offset=0, nbytes=CACHE_LINE_SIZE)
        loads_before = bm.stats.fine_grained_loads
        bm.read(page, offset=0, nbytes=CACHE_LINE_SIZE)
        assert bm.stats.fine_grained_loads == loads_before

    def test_write_marks_lines_dirty(self):
        bm = fine_bm()
        page = bm.allocate_page()
        bm.write(page, offset=0, nbytes=CACHE_LINE_SIZE)
        descriptor = bm.table.get(page).copy_on(Tier.DRAM)
        assert descriptor.dirty
        assert descriptor.content.dirty_count >= 1

    def test_flush_writes_back_only_dirty_lines(self):
        bm = fine_bm()
        page = bm.allocate_page()
        bm.write(page, offset=0, nbytes=CACHE_LINE_SIZE)
        nvm_writes_before = (
            bm.hierarchy.device(Tier.NVM).snapshot_counters().media_write_bytes
        )
        assert bm.flush_dirty_dram() == 1
        nvm_written = (
            bm.hierarchy.device(Tier.NVM).snapshot_counters().media_write_bytes
            - nvm_writes_before
        )
        # Only the dirtied loading unit moves, not the 16 KB page.
        assert 0 < nvm_written < PAGE_SIZE
        # The backing NVM copy is now newer than the SSD copy.
        assert bm.table.get(page).copy_on(Tier.NVM).dirty

    def test_granularity_controls_lines_per_load(self):
        for granularity, expected_lines in ((64, 1), (512, 8)):
            bm = fine_bm(granularity=granularity)
            page = bm.allocate_page()
            bm.read(page, offset=0, nbytes=1)
            descriptor = bm.table.get(page).copy_on(Tier.DRAM)
            assert descriptor.content.resident_count == expected_lines


class TestMiniPages:
    def test_small_access_creates_mini_page(self):
        bm = fine_bm(mini_pages=True)
        page = bm.allocate_page()
        bm.read(page, offset=0, nbytes=CACHE_LINE_SIZE)
        descriptor = bm.table.get(page).copy_on(Tier.DRAM)
        assert isinstance(descriptor.content, MiniPage)

    def test_mini_page_occupies_less_dram(self):
        bm = fine_bm(mini_pages=True, dram_gb=1.0)
        page = bm.allocate_page()
        bm.read(page, offset=0, nbytes=CACHE_LINE_SIZE)
        assert bm.pools[Tier.DRAM].used_bytes == MINI_PAGE_BYTES

    def test_overflow_promotes_to_full_page(self):
        bm = fine_bm(mini_pages=True)
        page = bm.allocate_page()
        # Touch 17 distinct lines: one more than the mini page holds.
        for line in range(17):
            bm.read(page, offset=line * CACHE_LINE_SIZE, nbytes=1)
        descriptor = bm.table.get(page).copy_on(Tier.DRAM)
        assert isinstance(descriptor.content, CacheLinePage)
        assert bm.stats.mini_page_promotions == 1

    def test_promotion_preserves_dirty_lines(self):
        bm = fine_bm(mini_pages=True)
        page = bm.allocate_page()
        bm.write(page, offset=0, nbytes=1)
        for line in range(1, 17):
            bm.read(page, offset=line * CACHE_LINE_SIZE, nbytes=1)
        descriptor = bm.table.get(page).copy_on(Tier.DRAM)
        assert descriptor.dirty
        assert descriptor.content.dirty_count >= 1

    def test_more_mini_pages_fit_than_full_pages(self):
        # Large NVM so no NVM eviction forces mini-page promotions.
        bm = fine_bm(mini_pages=True, dram_gb=1.0, nvm_gb=16.0)
        pages = [bm.allocate_page() for _ in range(20)]
        for page in pages:
            bm.read(page, offset=0, nbytes=CACHE_LINE_SIZE)
        # A full-page pool would hold 4; mini pages hold all 20.
        assert len(bm.pools[Tier.DRAM]) == 20


class TestNvmEvictionWithPartialDramCopies:
    def test_backing_eviction_promotes_dram_copy(self):
        bm = fine_bm(nvm_gb=1.0)  # 4-frame NVM pool
        page = bm.allocate_page()
        bm.read(page, offset=0, nbytes=CACHE_LINE_SIZE)  # partial DRAM copy
        # Blow the NVM pool so `page`'s backing is evicted.
        filler_policy_reads = [bm.allocate_page() for _ in range(6)]
        for filler in filler_policy_reads:
            bm.read(filler, offset=0, nbytes=CACHE_LINE_SIZE)
        descriptor = bm.table.get(page).copy_on(Tier.DRAM)
        if descriptor is not None and page not in bm.resident_pages(Tier.NVM):
            # The DRAM copy must now be self-contained.
            content = descriptor.content
            assert isinstance(content, (CacheLinePage, MiniPage)) is False or (
                isinstance(content, CacheLinePage)
                and content.resident_count == content.num_lines
            )
