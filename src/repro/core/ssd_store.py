"""The SSD-resident database: the authoritative home of every page.

All pages are born on SSD (the paper: "Initially, a newly-allocated
16 KB page resides on SSD").  The store keeps the durable copy of each
page's content; buffered copies on DRAM/NVM may be newer until written
back.  A crash-simulation hook drops nothing here (SSD is persistent)
— volatile state is dropped by the buffer manager's ``crash()``.

For fault-injection runs the store can additionally maintain a CRC32
checksum per written page (:meth:`enable_checksums`), letting recovery
*detect* a torn page write instead of trusting its LSN.  Checksumming
is off by default so benchmark runs pay nothing for it; the
:class:`~repro.faults.crash.CrashController` switches it on when a
fault plan is active.
"""

from __future__ import annotations

import itertools
import math
import threading
import zlib

from ..faults.plan import DeviceIOError
from ..hardware.device import Device
from ..hardware.specs import PAGE_SIZE
from ..pages.page import Page, PageId
from .devio import read_with_retry, write_with_retry


def page_content_checksum(records: dict[int, bytes]) -> int:
    """CRC32 over a canonical (slot-sorted, length-prefixed) encoding."""
    crc = 0
    for slot in sorted(records):
        payload = records[slot]
        crc = zlib.crc32(f"{slot}:{len(payload)}:".encode("ascii"), crc)
        crc = zlib.crc32(payload, crc)
    return crc & 0xFFFFFFFF


class SsdStore:
    """Page-granular durable store backed by a simulated SSD device."""

    def __init__(self, device: Device, page_size: int = PAGE_SIZE) -> None:
        self.device = device
        self.page_size = page_size
        self._pages: dict[PageId, Page] = {}
        self._next_id = itertools.count()
        self._lock = threading.Lock()
        #: Checksum of each page's intended content at its last write
        #: (only maintained once :meth:`enable_checksums` was called).
        self._checksums: dict[PageId, int] = {}
        self._checksums_enabled = False
        #: Identity and pre-write content of the most recent page write,
        #: kept so a crash can tear that write (unwritten sectors retain
        #: their previous bytes — the media-prefix model).
        self._last_written: PageId | None = None
        self._last_shadow: dict[int, bytes] | None = None
        #: Observer called with the number of torn pages a verify/heal
        #: pass detected (wired to the fault metrics registry).
        self.on_torn = None

    # ------------------------------------------------------------------
    def allocate(self, page_id: PageId | None = None) -> Page:
        """Create a new empty page on SSD and return its durable copy."""
        with self._lock:
            if page_id is None:
                page_id = next(self._next_id)
                while page_id in self._pages:
                    page_id = next(self._next_id)
            elif page_id in self._pages:
                raise ValueError(f"page {page_id} already exists")
            page = Page(page_id, self.page_size)
            self._pages[page_id] = page
            return page

    def allocate_many(self, page_ids) -> int:
        """Ensure every id in ``page_ids`` exists, creating missing pages.

        One lock acquisition covers the whole batch, so bulk database
        loading does not pay a lock round-trip (plus an ``exists``
        pre-check) per page.  Existing pages are left untouched.
        Returns the number of pages actually created.
        """
        created = 0
        page_size = self.page_size
        with self._lock:
            pages = self._pages
            for page_id in page_ids:
                if page_id not in pages:
                    pages[page_id] = Page(page_id, page_size)
                    created += 1
        return created

    def exists(self, page_id: PageId) -> bool:
        with self._lock:
            return page_id in self._pages

    def read_page(self, page_id: PageId) -> Page:
        """Fetch the durable copy, charging a full-page SSD read."""
        with self._lock:
            try:
                page = self._pages[page_id]
            except KeyError:
                raise KeyError(f"page {page_id} does not exist on SSD") from None
        # The device is issued the read itself; only a transient fault
        # enters the charged retry loop (as ``TierNode.read`` does).
        device = self.device
        try:
            device.read(self.page_size)
        except DeviceIOError as exc:
            read_with_retry(device, self.page_size, failed=exc)
        return page

    def write_page(self, page: Page, sequential: bool = False) -> None:
        """Write ``page``'s content back, charging a full-page SSD write."""
        with self._lock:
            durable = self._pages.get(page.page_id)
            if durable is None:
                raise KeyError(f"page {page.page_id} does not exist on SSD")
            if self._checksums_enabled:
                self._last_written = page.page_id
                self._last_shadow = dict(durable.records)
                self._checksums[page.page_id] = page_content_checksum(
                    page.records)
        durable.copy_from(page)
        device = self.device
        try:
            device.write(self.page_size, sequential)
        except DeviceIOError as exc:
            write_with_retry(device, self.page_size, sequential, failed=exc)

    # ------------------------------------------------------------------
    # Torn-write detection (fault-injection runs)
    # ------------------------------------------------------------------
    def enable_checksums(self) -> None:
        """Start checksumming page writes (lazy: off for benchmarks)."""
        self._checksums_enabled = True

    def verify(self, page_id: PageId) -> bool:
        """True when the durable content matches its recorded checksum.

        Pages written before checksumming was enabled (or never written
        back at all) carry no checksum and are accepted.
        """
        with self._lock:
            expected = self._checksums.get(page_id)
            if expected is None:
                return True
            page = self._pages.get(page_id)
            if page is None:
                return True
            return page_content_checksum(page.records) == expected

    def torn_page_ids(self) -> list[PageId]:
        """Every checksummed page whose durable content fails to verify."""
        with self._lock:
            checked = list(self._checksums)
        return [pid for pid in checked if not self.verify(pid)]

    def tear_last_write(self, fraction: float = 0.5) -> PageId:
        """Tear the most recent page write (crash-coupled hazard).

        Models a power failure mid-write at media granularity: only a
        prefix of the page's sectors persisted the new content; the
        remaining sectors retain their *previous* bytes (they were never
        rewritten).  By the slot-ordered media-prefix model, the first
        ``ceil(slots * fraction)`` slots keep the new content and the
        rest revert to the pre-write shadow.  The recorded checksum is
        the intended full write's, so :meth:`verify` now fails for this
        page.  Returns the torn page id, or ``-1`` when no tracked write
        exists.
        """
        with self._lock:
            page_id = self._last_written
            shadow = self._last_shadow
            if page_id is None or shadow is None:
                return -1
            page = self._pages.get(page_id)
            if page is None:
                return -1
            new_slots = sorted(page.records)
            survivors = set(new_slots[:math.ceil(len(new_slots) * fraction)])
            for slot in new_slots:
                if slot in survivors:
                    continue
                if slot in shadow:
                    page.records[slot] = shadow[slot]
                else:
                    del page.records[slot]
            # Old slots the new write deleted reappear past the torn
            # prefix: their sectors were never overwritten.
            for slot, payload in shadow.items():
                if slot not in page.records and slot not in survivors:
                    page.records[slot] = payload
            self._last_written = None
            self._last_shadow = None
            return page_id

    def refresh_checksums(self, page_ids) -> None:
        """Re-stamp checksums after a legitimate in-place durable mutation.

        Recovery's redo/undo passes apply log images directly to durable
        page copies (they bypass :meth:`write_page`); without a re-stamp
        those pages would fail verification on the *next* recovery pass
        and be spuriously healed.  Pages without a recorded checksum are
        left unchecksummed.
        """
        with self._lock:
            for page_id in page_ids:
                if page_id in self._checksums:
                    page = self._pages.get(page_id)
                    if page is not None:
                        self._checksums[page_id] = page_content_checksum(
                            page.records)

    def heal_torn_pages(self) -> list[PageId]:
        """Reset torn pages so redo rebuilds them from the log.

        A torn page's LSN field (in the surviving prefix) claims the
        write completed; recovery must not trust it.  Healing resets the
        durable copy's LSN to 0, so the redo pass re-applies every
        retained log record for the page — checkpointing guarantees the
        retained log covers everything since the page's last complete
        write-back.  Returns the healed page ids.
        """
        torn = self.torn_page_ids()
        with self._lock:
            for page_id in torn:
                page = self._pages.get(page_id)
                if page is not None:
                    page.lsn = 0
                # The recorded checksum described the write that tore;
                # drop it so a second recovery pass is a no-op.
                self._checksums.pop(page_id, None)
        if torn and self.on_torn is not None:
            self.on_torn(len(torn))
        return torn

    def peek(self, page_id: PageId) -> Page | None:
        """Durable copy without charging I/O (tests/recovery inspection)."""
        with self._lock:
            return self._pages.get(page_id)

    def drop(self, page_id: PageId) -> bool:
        with self._lock:
            return self._pages.pop(page_id, None) is not None

    def page_ids(self) -> list[PageId]:
        with self._lock:
            return list(self._pages)

    def __len__(self) -> int:
        with self._lock:
            return len(self._pages)
