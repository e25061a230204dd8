"""Page descriptors and the per-tier latching protocol (§5.1, §5.2, Fig. 4).

Every logical page known to the buffer manager has one *shared page
descriptor* in the mapping table.  The shared descriptor carries one
latch per storage tier plus pointers to the per-tier page descriptors
for whichever buffer tiers currently hold a copy.  Copies and latches
are indexed by the tier's rank in the canonical top-down ordering
(DRAM, NVM, SSD), so the descriptor serves every chain the paper builds
without naming tiers.

A migration from tier X to tier Y acquires exactly the X and Y latches,
so e.g. an NVM→SSD write-back never blocks operations on the DRAM copy.
The upward NVM→DRAM path additionally waits until all references to the
NVM copy are dropped before copying (§5.2), which the descriptor exposes
via :meth:`SharedPageDescriptor.wait_for_unpinned`.

These objects sit on the hottest path of the buffer manager, so they
avoid dicts and contextlib in favour of slots, rank-indexed lists, and a
hand-rolled context manager.  A shared descriptor is built for every
page ever touched, so it holds only C-constructed latches; the unpin
wait shares one condition across pages, and pin counts share one lock
(a frame descriptor, built on every install, builds none).
"""

from __future__ import annotations

import operator
import threading
import time
from _thread import RLock
from itertools import starmap
from typing import Union

from ..hardware.specs import TIER_ORDER, Tier
from ..pages.cacheline_page import CacheLinePage
from ..pages.mini_page import MiniPage
from ..pages.page import Page, PageId

#: The kinds of frame content a tier descriptor may hold: a full page, a
#: cache-line-grained page, or a mini page.
FrameContent = Union[Page, CacheLinePage, MiniPage]

#: ``Tier.rank`` is the canonical (top-down) latch acquisition order,
#: preventing deadlock between concurrent migrations along different
#: paths of the same page.
_rank_of = operator.attrgetter("rank")

#: The bottom (store) tier holds no buffer copy.
_STORE_TIER = TIER_ORDER[-1]

#: One empty argument tuple per tier: ``starmap(RLock, _PER_TIER)``
#: builds a descriptor's latches without a Python frame.
_PER_TIER = ((),) * len(TIER_ORDER)

#: The one condition every unpin wakes (§5.2's migration wait).  A
#: wake-up is only a hint — each waiter re-checks its own page's copy —
#: so sharing it across pages is safe; unpins are rare (engine-level
#: pinned access only) and a page needs no condition of its own.
_UNPIN = threading.Condition()

#: The one lock every pin and unpin takes: pins are engine-level pinned
#: access only (``BufferManager.fetch_page``), never the hot path, so a
#: frame descriptor needs no lock of its own.
_PIN = threading.Lock()

#: Longest single sleep of :meth:`SharedPageDescriptor.wait_for_unpinned`
#: between re-checks, so a waiter never depends on being notified.
_UNPIN_POLL_S = 0.05


def notify_unpin() -> None:
    """Wake every unpin waiter; each re-checks its own page."""
    with _UNPIN:
        _UNPIN.notify_all()


class TierPageDescriptor:
    """Metadata for one tier's copy of a page (Fig. 4's dram_pd/nvm_pd).

    Holds the paper's three fields: user (pin) count, dirty bit, and the
    pointer to the frame content on that device, plus the frame index the
    buffer pool assigned and the bytes the entry occupies there (a mini
    page takes ~1 KB of its pool, not a full frame).
    """

    __slots__ = ("tier", "frame_index", "content", "entry_bytes", "dirty",
                 "pin_count", "claimed", "page_id")

    def __init__(self, tier: Tier, frame_index: int, content: FrameContent,
                 entry_bytes: int) -> None:
        self.tier = tier
        #: The page this copy is of: fixed for the descriptor's life
        #: (a layout change replaces ``content`` with the same page's).
        self.page_id: PageId = content.page_id
        self.frame_index = frame_index
        self.content = content
        self.entry_bytes = entry_bytes
        self.dirty = False
        self.pin_count = 0
        #: Set (under the pool lock) by the evictor that picked this
        #: descriptor as a victim, so two threads never evict one frame.
        self.claimed = False

    def pin(self) -> None:
        with _PIN:
            self.pin_count += 1

    def unpin(self) -> None:
        with _PIN:
            if self.pin_count <= 0:
                raise RuntimeError(
                    f"unpin of page {self.page_id} on {self.tier.name} "
                    "with zero pin count"
                )
            self.pin_count -= 1

    @property
    def pinned(self) -> bool:
        return self.pin_count > 0

    def mark_dirty(self) -> None:
        self.dirty = True

    def clear_dirty(self) -> None:
        self.dirty = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        flag = "dirty" if self.dirty else "clean"
        return (
            f"TierPageDescriptor(page={self.page_id}, tier={self.tier.name}, "
            f"frame={self.frame_index}, {flag}, pins={self.pin_count})"
        )


class _LatchGuard:
    """Hand-rolled ``with`` guard over an ordered list of latches."""

    __slots__ = ("_latches",)

    def __init__(self, latches: tuple) -> None:
        self._latches = latches

    def __enter__(self) -> None:
        for latch in self._latches:
            latch.acquire()

    def __exit__(self, exc_type, exc, tb) -> None:
        for latch in reversed(self._latches):
            latch.release()


class SharedPageDescriptor:
    """The mapping-table entry for one logical page.

    Its per-tier pointers are the only page → copy map there is: a
    buffer pool knows its frames, not which page sits in them, so every
    residency question is ``table.get(page).copy_on(tier)``.  The
    pointers change only inside :meth:`BufferPool.insert
    <repro.core.tier_chain.BufferPool.insert>` and ``remove``, together
    with the frame, under the tier latch the caller holds.

    Latches are reentrant so that a code path that already holds a tier
    latch (e.g. an eviction that cascades) does not deadlock on itself.
    """

    __slots__ = ("page_id", "_latches", "_copies")

    def __init__(self, page_id: PageId) -> None:
        self.page_id = page_id
        self._latches = tuple(starmap(RLock, _PER_TIER))
        self._copies: list[TierPageDescriptor | None] = [None] * len(TIER_ORDER)

    # ------------------------------------------------------------------
    # Latching
    # ------------------------------------------------------------------
    def latch(self, tier: Tier):
        return self._latches[tier.rank]

    def latched(self, *tiers: Tier):
        """A ``with`` guard holding the latches of ``tiers``, acquired in
        canonical (top-down) order."""
        latches = self._latches
        if len(tiers) == 1:
            # One latch needs no ordering; the RLock is its own guard.
            return latches[tiers[0].rank]
        ranks = sorted(set(map(_rank_of, tiers)))
        return _LatchGuard(tuple(map(latches.__getitem__, ranks)))

    # ------------------------------------------------------------------
    # Tier copies
    # ------------------------------------------------------------------
    def copy_on(self, tier: Tier) -> TierPageDescriptor | None:
        """The copy of this page buffered on ``tier``, if any.

        A lock-free read (one list load under the GIL): the copy may be
        evicted the instant it is returned, so callers that act on it
        revalidate under the tier latch, or pin it.
        """
        return self._copies[tier.rank]

    def attach(self, descriptor: TierPageDescriptor) -> None:
        tier = descriptor.tier
        if tier is _STORE_TIER:
            raise ValueError("only buffer-tier (non-SSD) copies are tracked")
        if self._copies[tier.rank] is not None:
            raise RuntimeError(
                f"page {self.page_id} already has a copy on {tier.name}"
            )
        self._copies[tier.rank] = descriptor

    def detach(self, tier: Tier) -> TierPageDescriptor:
        descriptor = self._copies[tier.rank]
        if descriptor is None:
            raise RuntimeError(f"page {self.page_id} has no copy on {tier.name}")
        self._copies[tier.rank] = None
        return descriptor

    @property
    def resident_tiers(self) -> tuple[Tier, ...]:
        return tuple(
            tier for tier in TIER_ORDER if self._copies[tier.rank] is not None
        )

    # ------------------------------------------------------------------
    # Unpin waiting (the NVM→DRAM migration protocol, §5.2)
    # ------------------------------------------------------------------
    def wait_for_unpinned(self, tier: Tier, timeout: float = 5.0) -> None:
        """Block until the ``tier`` copy has no users (or it vanished).

        Woken by :func:`notify_unpin` — for any page, so every wake-up
        re-checks this page's copy — and re-checks at least every
        ``_UNPIN_POLL_S`` regardless.
        """
        descriptor = self.copy_on(tier)
        if descriptor is None or not descriptor.pinned:
            return
        deadline = time.monotonic() + timeout
        with _UNPIN:
            while True:
                descriptor = self.copy_on(tier)
                if descriptor is None or not descriptor.pinned:
                    return
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                _UNPIN.wait(min(remaining, _UNPIN_POLL_S))
        raise TimeoutError(
            f"page {self.page_id} on {tier.name} stayed pinned for {timeout}s"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tiers = ",".join(t.name for t in self.resident_tiers) or "none"
        return f"SharedPageDescriptor(page={self.page_id}, resident={tiers})"
