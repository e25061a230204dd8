"""HyMem's NVM admission queue (§1 and §6.5 of the paper).

HyMem decides NVM admission with a queue of recently *considered* pages:
the first time a page is considered it is denied (and remembered); a
page found in the queue is removed and admitted.  This admits pages that
keep getting evicted from DRAM — i.e. warm pages — while one-shot pages
bypass NVM.

The queue is bounded; §6.5 finds that sizing it to half the number of
NVM buffer pages works well, which :func:`recommended_queue_size`
encodes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..pages.page import PageId


def recommended_queue_size(nvm_capacity_pages: int) -> int:
    """The queue size §6.5 found performant: half the NVM page count."""
    return max(1, nvm_capacity_pages // 2)


class AdmissionQueue:
    """Bounded FIFO of recently denied page identifiers."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("admission queue capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[PageId, None] = OrderedDict()
        self._lock = threading.Lock()
        self.considerations = 0
        self.admissions = 0

    def should_admit(self, page_id: PageId) -> bool:
        """Consider ``page_id`` for NVM admission.

        Returns True (and forgets the page) when it was recently denied;
        otherwise records the denial and returns False, evicting the
        oldest remembered page if the queue is full.
        """
        with self._lock:
            self.considerations += 1
            if page_id in self._entries:
                del self._entries[page_id]
                self.admissions += 1
                return True
            self._entries[page_id] = None
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return False

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, page_id: PageId) -> bool:
        with self._lock:
            return page_id in self._entries

    def snapshot(self) -> tuple[int, int, float]:
        """Consistent ``(considerations, admissions, rate)`` triple.

        ``considerations`` and ``admissions`` are updated together under
        the queue lock inside :meth:`should_admit`; reading them as two
        separate attribute loads can observe a consideration whose
        admission has not landed yet.  Per-tenant stats aggregation reads
        this snapshot instead.
        """
        with self._lock:
            considerations = self.considerations
            admissions = self.admissions
        rate = admissions / considerations if considerations else 0.0
        return considerations, admissions, rate

    @property
    def admission_rate(self) -> float:
        """Fraction of considerations that resulted in admission."""
        return self.snapshot()[2]
