"""Logical database pages.

A :class:`Page` is the 16 KB unit that moves between tiers.  Content is
stored as a slot → payload mapping rather than raw bytes: the simulation
charges device costs for the *logical* 16 KB, while keeping the Python
memory footprint proportional to the live records.  Recovery and engine
tests rely on the content being faithfully copied during migrations.
"""

from __future__ import annotations

import threading
from ..hardware.specs import CACHE_LINE_SIZE, PAGE_SIZE

PageId = int

#: Sentinel for "no page".
INVALID_PAGE_ID: PageId = -1


class Page:
    """A logical database page.

    Parameters
    ----------
    page_id:
        Stable logical identifier (the mapping-table key).
    size:
        Logical size in bytes; device transfers of the whole page charge
        this many bytes.
    """

    __slots__ = ("page_id", "size", "lsn", "records", "_lock")

    def __init__(self, page_id: PageId, size: int = PAGE_SIZE) -> None:
        if page_id < 0:
            raise ValueError("page_id must be non-negative")
        if size <= 0:
            raise ValueError("size must be positive")
        self.page_id = page_id
        self.size = size
        #: Log sequence number of the last update applied to this copy.
        self.lsn = 0
        self.records: dict[int, bytes] = {}
        self._lock = threading.Lock()

    @property
    def num_cache_lines(self) -> int:
        return self.size // CACHE_LINE_SIZE

    def read_record(self, slot: int) -> bytes | None:
        with self._lock:
            return self.records.get(slot)

    def write_record(self, slot: int, value: bytes, lsn: int | None = None) -> None:
        with self._lock:
            self.records[slot] = value
            if lsn is not None and lsn > self.lsn:
                self.lsn = lsn

    def delete_record(self, slot: int) -> bool:
        with self._lock:
            return self.records.pop(slot, None) is not None

    def copy_from(self, other: "Page") -> None:
        """Overwrite this copy's content with ``other``'s (tier migration)."""
        if other.page_id != self.page_id:
            raise ValueError(
                f"cannot copy page {other.page_id} into page {self.page_id}"
            )
        with other._lock:
            records = dict(other.records)
            lsn = other.lsn
        with self._lock:
            self.records = records
            self.lsn = lsn

    def clone(self) -> "Page":
        """An independent deep copy (used when installing on a new tier).

        Every SSD fetch and page migration makes one, so it fills a bare
        object under one lock scope instead of going through
        ``__init__`` (whose checks this page already passed) and
        :meth:`copy_from`.
        """
        fresh = object.__new__(Page)
        fresh.page_id = self.page_id
        fresh.size = self.size
        with self._lock:
            fresh.records = dict(self.records)
            fresh.lsn = self.lsn
        fresh._lock = threading.Lock()
        return fresh

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Page(id={self.page_id}, lsn={self.lsn}, records={len(self.records)})"
