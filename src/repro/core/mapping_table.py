"""Unified DRAM-resident mapping table (§5.1, Fig. 4).

Maps logical page identifiers to shared page descriptors for *every*
buffer tier; the descriptor's per-tier pointers are the only page →
copy map in the buffer manager.  The paper uses TBB's concurrent hash
map; here one dict with one mutation lock gives the same semantics
(atomic get-or-create / remove per key): under the GIL a ``dict.get``
is already atomic, so readers never lock and only the rare mutations
serialise.
"""

from __future__ import annotations

import threading
from typing import Iterator

from ..pages.page import PageId
from .descriptors import SharedPageDescriptor


class MappingTable:
    """A concurrent map from page id to shared descriptor.

    Entries are deliberately *not* dropped when a page loses its last
    buffered copy: removing one while another thread still holds the
    shared descriptor would let :meth:`get_or_create` mint a second
    descriptor for the same page, and the per-page latches would no
    longer serialise its migrations.  The table is bounded by the pages
    ever touched (the database size); a crash clears it and recovery
    rebuilds it from the persistent frames.
    """

    def __init__(self) -> None:
        self._entries: dict[PageId, SharedPageDescriptor] = {}
        self._lock = threading.Lock()
        #: ``get(page_id)``: the page's descriptor, or ``None``.  The
        #: dict's own bound method — lock-free (``dict.get`` is atomic
        #: under the GIL, and a lock would promise nothing more: the
        #: entry could be removed the instant it was released) and no
        #: Python frame on the eviction and batch-scan paths.
        self.get = self._entries.get

    # ------------------------------------------------------------------
    def get_or_create(self, page_id: PageId) -> SharedPageDescriptor:
        """Atomically look up or insert the descriptor for ``page_id``."""
        entries = self._entries
        # Probe before locking: entries are never replaced, only
        # removed, so a descriptor found here is the page's only one.
        descriptor = entries.get(page_id)
        if descriptor is not None:
            return descriptor
        with self._lock:
            descriptor = entries.get(page_id)
            if descriptor is None:
                descriptor = SharedPageDescriptor(page_id)
                entries[page_id] = descriptor
            return descriptor

    def remove(self, page_id: PageId) -> SharedPageDescriptor | None:
        """Drop the descriptor for ``page_id`` if present."""
        with self._lock:
            return self._entries.pop(page_id, None)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, page_id: PageId) -> bool:
        return page_id in self._entries

    def __iter__(self) -> Iterator[SharedPageDescriptor]:
        """Iterate over a snapshot of all descriptors (stats/recovery)."""
        with self._lock:
            snapshot = list(self._entries.values())
        return iter(snapshot)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
