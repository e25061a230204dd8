"""Cache-line-grained page layout (Fig. 2a of the paper).

A cache-line-grained page is a DRAM-resident view of an NVM-backed page
that loads only the cache lines actually accessed.  Two bitmasks track
which lines are *resident* and which are *dirty*; the ``r``/``d`` bits
summarise full residency/dirtiness.  The header (bitmasks + NVM back
pointer) fits in two cache lines.

HyMem proposed loading at 64 B (one cache line); §6.5 of the paper shows
that on Optane the device media granularity is 256 B, so loads smaller
than that are amplified.  The *loading unit* is therefore a parameter
(:class:`LoadingUnit` in :mod:`repro.pages.granularity`).
"""

from __future__ import annotations

import threading

from ..hardware.specs import CACHE_LINE_SIZE, PAGE_SIZE
from .page import Page, PageId

#: Header size: resident mask + dirty mask + flags + NVM pointer = 2 lines.
CACHE_LINE_PAGE_HEADER_BYTES = 2 * CACHE_LINE_SIZE

#: The one lock every mask update of every partial layout takes — cache-
#: line pages and mini pages alike.  A layout is built on every NVM→DRAM
#: migration, so it builds no lock of its own; an update is a few
#: integer operations, so sharing one across pages costs no parallelism
#: (the descriptors' pin lock follows the same pattern).
MASK_LOCK = threading.Lock()


def _range_error(first_line: int, nlines: int, num_lines: int) -> ValueError:
    return ValueError(
        f"line range [{first_line}, {first_line + nlines}) outside "
        f"page of {num_lines} lines"
    )


class CacheLinePage:
    """A partially loaded DRAM copy of an NVM-resident page.

    The bitmask operations use arbitrary-precision ints (one bit per cache
    line), mirroring the paper's layout where each mask covers the page's
    256 cache lines.  Both masks are readable attributes — the serving
    path tests a request against :attr:`resident_mask` without a call —
    and change only under :data:`MASK_LOCK`, inside the methods below.
    Each method checks its line range once.
    """

    __slots__ = (
        "page_id",
        "size",
        "nvm_page",
        "resident_mask",
        "dirty_mask",
        "_num_lines",
    )

    def __init__(self, nvm_page: Page, size: int = PAGE_SIZE) -> None:
        self.page_id: PageId = nvm_page.page_id
        self.size = size
        #: Back pointer to the underlying NVM page for on-demand loads.
        self.nvm_page = nvm_page
        self._num_lines = size // CACHE_LINE_SIZE
        #: One bit per loaded line.
        self.resident_mask = 0
        #: One bit per line to write back (always a subset of the
        #: resident lines).
        self.dirty_mask = 0

    # ------------------------------------------------------------------
    @property
    def num_lines(self) -> int:
        return self._num_lines

    @property
    def resident_count(self) -> int:
        return self.resident_mask.bit_count()

    @property
    def dirty_count(self) -> int:
        return self.dirty_mask.bit_count()

    # ------------------------------------------------------------------
    def load_lines(self, first_line: int, nlines: int) -> int:
        """Mark a line range resident; return how many were newly loaded.

        The caller charges the device cost for the newly loaded lines
        (possibly rounded up to the loading unit).
        """
        if first_line < 0 or nlines <= 0 \
                or first_line + nlines > self._num_lines:
            raise _range_error(first_line, nlines, self._num_lines)
        mask = ((1 << nlines) - 1) << first_line
        with MASK_LOCK:
            newly = mask & ~self.resident_mask
            self.resident_mask |= mask
        return newly.bit_count()

    def mark_dirty(self, first_line: int, nlines: int) -> None:
        """Mark a line range dirty (it must already be resident)."""
        if first_line < 0 or nlines <= 0 \
                or first_line + nlines > self._num_lines:
            raise _range_error(first_line, nlines, self._num_lines)
        mask = ((1 << nlines) - 1) << first_line
        with MASK_LOCK:
            if mask & ~self.resident_mask:
                raise ValueError("cannot dirty lines that are not resident")
            self.dirty_mask |= mask

    def writeback_lines(self) -> int:
        """Clear the dirty mask; return the number of lines to write back.

        Only dirty lines are written back to NVM on eviction (Fig. 2's
        ``dirty`` mask is exactly this set).
        """
        with MASK_LOCK:
            dirty = self.dirty_mask
            self.dirty_mask = 0
        return dirty.bit_count()

    def resident_bytes(self) -> int:
        return self.resident_count * CACHE_LINE_SIZE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CacheLinePage(id={self.page_id}, resident={self.resident_count}"
            f"/{self._num_lines}, dirty={self.dirty_count})"
        )
