"""Crash/recovery with fine-grained (cache-line / mini-page) layouts.

§5.2's recovery protocol rebuilds the mapping table from the persistent
NVM buffer.  Fine-grained configurations complicate that story: DRAM
holds *partial* views (cache-line pages, mini pages) whose backing is
the NVM copy.  These tests pin down what survives a crash — the full
NVM pages, including dirty lines persisted by a pre-crash flush — and
what is correctly lost: the volatile partial views themselves.
"""

from __future__ import annotations

from conftest import make_bm

from repro.core.buffer_manager import BufferManagerConfig
from repro.core.policy import SPITFIRE_EAGER
from repro.hardware.specs import CACHE_LINE_SIZE, Tier
from repro.pages.cacheline_page import CacheLinePage
from repro.pages.granularity import LoadingUnit
from repro.pages.mini_page import MiniPage
from repro.pages.page import Page


def fine_bm(mini_pages: bool = False, **kwargs):
    config = BufferManagerConfig(
        fine_grained=True,
        mini_pages=mini_pages,
        loading_unit=LoadingUnit(256),
    )
    return make_bm(policy=SPITFIRE_EAGER, config=config, **kwargs)


def touch(bm, page_id: int, is_write: bool = False) -> None:
    if not bm.page_exists(page_id):
        bm.allocate_page(page_id)
    if is_write:
        bm.write(page_id, offset=0, nbytes=CACHE_LINE_SIZE)
    else:
        bm.read(page_id, offset=0, nbytes=CACHE_LINE_SIZE)


class TestPartialResidencySetup:
    def test_dram_partial_over_nvm_full(self):
        bm = fine_bm()
        touch(bm, 0)
        dram = bm.table.get(0).copy_on(Tier.DRAM)
        nvm = bm.table.get(0).copy_on(Tier.NVM)
        assert isinstance(dram.content, CacheLinePage)
        assert not dram.content.fully_resident
        assert isinstance(nvm.content, Page)


class TestCrash:
    def test_crash_drops_partial_views_keeps_nvm(self):
        bm = fine_bm()
        for page in range(4):
            touch(bm, page)
        nvm_before = bm.resident_pages(Tier.NVM)
        assert nvm_before == {0, 1, 2, 3}
        bm.simulate_crash()
        assert bm.resident_pages(Tier.DRAM) == set()
        assert bm.resident_pages(Tier.NVM) == nvm_before
        assert bm.table.get(0) is None

    def test_unflushed_dirty_lines_are_lost(self):
        """A dirty partial DRAM view without a flush dies with the crash
        — its NVM backing stays clean (the SSD copy is authoritative)."""
        bm = fine_bm()
        touch(bm, 0, is_write=True)
        assert bm.table.get(0).copy_on(Tier.DRAM).dirty
        assert not bm.table.get(0).copy_on(Tier.NVM).dirty
        bm.simulate_crash()
        bm.recover_mapping_table()
        assert not bm.table.get(0).copy_on(Tier.NVM).dirty

    def test_flushed_dirty_lines_survive(self):
        """flush_dirty_dram persists partial layouts' dirty lines into
        the NVM backing page; the dirty NVM copy survives the crash."""
        bm = fine_bm()
        touch(bm, 0, is_write=True)
        flushed = bm.flush_dirty_dram()
        assert flushed == 1
        assert not bm.table.get(0).copy_on(Tier.DRAM).dirty
        assert bm.table.get(0).copy_on(Tier.NVM).dirty
        bm.simulate_crash()
        recovered = bm.recover_mapping_table()
        assert recovered == 1
        # The recovered NVM frame still carries its dirty flag, so a
        # shutdown flush pushes it to SSD.
        assert bm.table.get(0).copy_on(Tier.NVM).dirty
        assert bm.flush_all() == 1
        assert not bm.table.get(0).copy_on(Tier.NVM).dirty


class TestRecovery:
    def test_recover_rebuilds_table_from_nvm(self):
        bm = fine_bm()
        for page in range(5):
            touch(bm, page, is_write=(page % 2 == 0))
        bm.flush_dirty_dram()
        nvm_resident = bm.resident_pages(Tier.NVM)
        bm.simulate_crash()
        recovered = bm.recover_mapping_table()
        assert recovered == len(nvm_resident)
        for page in nvm_resident:
            shared = bm.table.get(page)
            assert shared is not None
            assert shared.copy_on(Tier.NVM) is not None
            assert shared.copy_on(Tier.DRAM) is None

    def test_recovery_is_idempotent(self):
        bm = fine_bm()
        for page in range(3):
            touch(bm, page)
        bm.simulate_crash()
        assert bm.recover_mapping_table() == 3
        assert bm.recover_mapping_table() == 0

    def test_read_after_recovery_hits_nvm_and_reloads_partially(self):
        bm = fine_bm()
        touch(bm, 0)
        bm.simulate_crash()
        bm.recover_mapping_table()
        fetches_before = bm.stats.ssd_fetches
        result = bm.read(0, offset=0, nbytes=CACHE_LINE_SIZE)
        assert result.hit
        assert bm.stats.ssd_fetches == fetches_before
        # The promotion re-creates a *partial* DRAM view over the
        # recovered NVM page, exactly as on the pre-crash path.
        dram = bm.table.get(0).copy_on(Tier.DRAM)
        assert isinstance(dram.content, CacheLinePage)
        assert not dram.content.fully_resident

    def test_mini_page_views_recover_the_same_way(self):
        bm = fine_bm(mini_pages=True)
        touch(bm, 0, is_write=True)
        assert isinstance(bm.table.get(0).copy_on(Tier.DRAM).content, MiniPage)
        bm.flush_dirty_dram()
        bm.simulate_crash()
        assert bm.recover_mapping_table() == 1
        result = bm.read(0, offset=0, nbytes=CACHE_LINE_SIZE)
        assert result.hit
        assert isinstance(bm.table.get(0).copy_on(Tier.DRAM).content, MiniPage)
