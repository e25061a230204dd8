"""Mini-page layout (Fig. 2b of the paper).

A mini page is a compact DRAM representation of a cache-line-grained page
that holds at most sixteen cache lines.  A ``slots`` array maps each
occupied slot to the logical cache-line number it caches; ``count``
tracks occupancy and a dirty mask records which slots must be written
back.  When a seventeenth distinct line is needed the mini page
*overflows* and is transparently promoted to a full page.

The header (count, slots, dirty mask, flags) fits in one cache line.
"""

from __future__ import annotations

from ..hardware.specs import CACHE_LINE_SIZE
from .cacheline_page import MASK_LOCK
from .page import Page, PageId

#: Maximum number of cache lines a mini page can hold.
MINI_PAGE_SLOTS = 16

#: Header size: one cache line.
MINI_PAGE_HEADER_BYTES = CACHE_LINE_SIZE

#: DRAM footprint of a mini page: header + 16 cache lines.
MINI_PAGE_BYTES = MINI_PAGE_HEADER_BYTES + MINI_PAGE_SLOTS * CACHE_LINE_SIZE


class MiniPageOverflow(Exception):
    """Raised when an access needs more slots than the mini page has.

    The buffer manager catches this and promotes the mini page to a full
    :class:`~repro.pages.cacheline_page.CacheLinePage`.
    """

    def __init__(self, page_id: PageId, needed: int) -> None:
        super().__init__(
            f"mini page {page_id} overflow: needs {needed} slots, has {MINI_PAGE_SLOTS}"
        )
        self.page_id = page_id
        self.needed = needed


class MiniPage:
    """A sixteen-slot mini page caching lines of an NVM-resident page.

    Slots and the dirty mask change only under the partial layouts'
    shared :data:`~repro.pages.cacheline_page.MASK_LOCK`.
    """

    __slots__ = ("page_id", "nvm_page", "_slots", "dirty_mask")

    def __init__(self, nvm_page: Page) -> None:
        self.page_id: PageId = nvm_page.page_id
        self.nvm_page = nvm_page
        #: slot index -> logical cache-line number (insertion ordered).
        self._slots: list[int] = []
        #: One bit per slot to write back.
        self.dirty_mask = 0

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return len(self._slots)

    @property
    def full(self) -> bool:
        return len(self._slots) >= MINI_PAGE_SLOTS

    @property
    def slots(self) -> tuple[int, ...]:
        with MASK_LOCK:
            return tuple(self._slots)

    @property
    def is_dirty(self) -> bool:
        return self.dirty_mask != 0

    @property
    def dirty_count(self) -> int:
        return self.dirty_mask.bit_count()

    def resident_bytes(self) -> int:
        return MINI_PAGE_HEADER_BYTES + self.count * CACHE_LINE_SIZE

    # ------------------------------------------------------------------
    def lookup(self, line: int) -> int | None:
        """Slot holding logical ``line``, or None when not cached.

        This is the slot search whose cost grows with the loading unit;
        §6.5 attributes the mini page's limited benefit on Optane to this
        per-access overhead.
        """
        with MASK_LOCK:
            try:
                return self._slots.index(line)
            except ValueError:
                return None

    def ensure_lines(self, lines) -> int:
        """Make every line in ``lines`` (any iterable of line numbers)
        resident; return newly loaded count.

        Raises :class:`MiniPageOverflow` when the lines would not fit, in
        which case no slot is consumed (all-or-nothing), matching the
        transparent-promotion behaviour in the paper.
        """
        with MASK_LOCK:
            missing = [ln for ln in dict.fromkeys(lines) if ln not in self._slots]
            if len(self._slots) + len(missing) > MINI_PAGE_SLOTS:
                raise MiniPageOverflow(self.page_id, len(self._slots) + len(missing))
            self._slots.extend(missing)
            return len(missing)

    def mark_dirty(self, line: int) -> None:
        with MASK_LOCK:
            try:
                slot = self._slots.index(line)
            except ValueError:
                raise ValueError(f"line {line} is not resident in mini page") from None
            self.dirty_mask |= 1 << slot

    def writeback_lines(self) -> list[int]:
        """Dirty logical lines to flush to NVM; clears the dirty mask."""
        with MASK_LOCK:
            mask = self.dirty_mask
            dirty = [
                line
                for slot, line in enumerate(self._slots)
                if mask & (1 << slot)
            ]
            self.dirty_mask = 0
            return dirty

    def resident_lines(self) -> list[int]:
        with MASK_LOCK:
            return list(self._slots)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MiniPage(id={self.page_id}, count={self.count}, "
            f"dirty={self.dirty_count})"
        )
