"""Page layouts: full pages, cache-line-grained pages, mini pages."""

import pytest

from repro.hardware.specs import CACHE_LINE_SIZE
from repro.pages.cacheline_page import CacheLinePage
from repro.pages.mini_page import MINI_PAGE_SLOTS, MiniPage, MiniPageOverflow
from repro.pages.page import Page


class TestPage:
    def test_records_roundtrip(self):
        page = Page(1)
        page.write_record(3, b"hello")
        assert page.read_record(3) == b"hello"
        assert page.read_record(4) is None

    def test_lsn_monotonic(self):
        page = Page(1)
        page.write_record(0, b"a", lsn=5)
        page.write_record(0, b"b", lsn=3)
        assert page.lsn == 5

    def test_delete_record(self):
        page = Page(1)
        page.write_record(0, b"a")
        assert page.delete_record(0)
        assert not page.delete_record(0)

    def test_copy_from(self):
        src = Page(7)
        src.write_record(1, b"x", lsn=9)
        dst = Page(7)
        dst.copy_from(src)
        assert dst.read_record(1) == b"x"
        assert dst.lsn == 9

    def test_copy_from_wrong_page_rejected(self):
        with pytest.raises(ValueError):
            Page(1).copy_from(Page(2))

    def test_clone_is_independent(self):
        src = Page(7)
        src.write_record(1, b"x")
        clone = src.clone()
        clone.write_record(1, b"y")
        assert src.read_record(1) == b"x"

    def test_invalid_ids_rejected(self):
        with pytest.raises(ValueError):
            Page(-1)
        with pytest.raises(ValueError):
            Page(0, size=0)


class TestCacheLinePage:
    @pytest.fixture
    def clp(self) -> CacheLinePage:
        return CacheLinePage(Page(1))

    def test_starts_empty(self, clp: CacheLinePage):
        assert clp.resident_count == 0
        assert clp.dirty_mask == 0

    def test_load_lines(self, clp: CacheLinePage):
        assert clp.load_lines(0, 4) == 4
        assert clp.resident_count == 4
        # Reloading is idempotent.
        assert clp.load_lines(0, 4) == 0

    def test_partial_overlap_counts_new_only(self, clp: CacheLinePage):
        clp.load_lines(0, 4)
        assert clp.load_lines(2, 4) == 2

    def test_dirty_requires_residency(self, clp: CacheLinePage):
        with pytest.raises(ValueError):
            clp.mark_dirty(0, 1)
        clp.load_lines(0, 2)
        clp.mark_dirty(0, 2)
        assert clp.dirty_count == 2

    def test_writeback_clears_dirty(self, clp: CacheLinePage):
        clp.load_lines(0, 3)
        clp.mark_dirty(0, 3)
        assert clp.writeback_lines() == 3
        assert clp.dirty_mask == 0
        # The lines remain resident after write-back.
        assert clp.resident_count == 3

    def test_byte_accessors(self, clp: CacheLinePage):
        clp.load_lines(0, 2)
        clp.mark_dirty(0, 1)
        assert clp.resident_bytes() == 2 * CACHE_LINE_SIZE

    def test_range_validation(self, clp: CacheLinePage):
        with pytest.raises(ValueError):
            clp.load_lines(255, 2)
        with pytest.raises(ValueError):
            clp.load_lines(-1, 1)
        with pytest.raises(ValueError):
            clp.load_lines(0, 0)

    def test_back_pointer(self):
        backing = Page(42)
        clp = CacheLinePage(backing)
        assert clp.nvm_page is backing
        assert clp.page_id == 42


class TestMiniPage:
    @pytest.fixture
    def mini(self) -> MiniPage:
        return MiniPage(Page(9))

    def test_starts_empty(self, mini: MiniPage):
        assert mini.count == 0
        assert not mini.full
        assert mini.dirty_mask == 0

    def test_ensure_lines(self, mini: MiniPage):
        assert mini.ensure_lines([255, 7, 2]) == 3
        assert mini.count == 3
        assert mini.ensure_lines([7]) == 0

    def test_slots_record_logical_lines(self, mini: MiniPage):
        mini.ensure_lines([255, 7])
        assert mini.slots == (255, 7)
        assert mini.lookup(255) == 0
        assert mini.lookup(7) == 1
        assert mini.lookup(3) is None

    def test_overflow_is_all_or_nothing(self, mini: MiniPage):
        mini.ensure_lines(list(range(15)))
        with pytest.raises(MiniPageOverflow):
            mini.ensure_lines([20, 21])
        # Nothing was partially inserted.
        assert mini.count == 15
        mini.ensure_lines([20])
        assert mini.full

    def test_overflow_at_capacity(self, mini: MiniPage):
        mini.ensure_lines(list(range(MINI_PAGE_SLOTS)))
        with pytest.raises(MiniPageOverflow) as exc_info:
            mini.ensure_lines([100])
        assert exc_info.value.page_id == 9

    def test_duplicate_lines_deduplicated(self, mini: MiniPage):
        assert mini.ensure_lines([5, 5, 5]) == 1
        assert mini.count == 1

    def test_dirty_tracking(self, mini: MiniPage):
        mini.ensure_lines([10, 20])
        mini.mark_dirty(20)
        assert mini.dirty_count == 1
        assert mini.writeback_lines() == [20]
        assert mini.dirty_mask == 0

    def test_dirty_requires_residency(self, mini: MiniPage):
        with pytest.raises(ValueError):
            mini.mark_dirty(3)

    def test_resident_bytes(self, mini: MiniPage):
        mini.ensure_lines([1, 2])
        assert mini.resident_bytes() == CACHE_LINE_SIZE + 2 * CACHE_LINE_SIZE

    def test_resident_lines(self, mini: MiniPage):
        mini.ensure_lines([9, 3])
        assert mini.resident_lines() == [9, 3]
