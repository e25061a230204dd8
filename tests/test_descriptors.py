"""Shared/tier page descriptors and the per-tier latching protocol."""

import threading
import time

import pytest

from repro.core.descriptors import (
    SharedPageDescriptor,
    TierPageDescriptor,
    notify_unpin,
)
from repro.hardware.specs import PAGE_SIZE, Tier
from repro.pages.page import Page


def tier_desc(tier: Tier = Tier.DRAM, page_id: int = 1) -> TierPageDescriptor:
    return TierPageDescriptor(tier, 0, Page(page_id), PAGE_SIZE)


class TestTierDescriptor:
    def test_pin_unpin(self):
        descriptor = tier_desc()
        descriptor.pin()
        descriptor.pin()
        assert descriptor.pin_count == 2
        descriptor.unpin()
        assert descriptor.pinned
        descriptor.unpin()
        assert not descriptor.pinned

    def test_unpin_below_zero(self):
        with pytest.raises(RuntimeError):
            tier_desc().unpin()

    def test_dirty_flag(self):
        descriptor = tier_desc()
        descriptor.mark_dirty()
        assert descriptor.dirty
        descriptor.clear_dirty()
        assert not descriptor.dirty

    def test_page_id_from_content(self):
        assert tier_desc(page_id=17).page_id == 17


class TestAttachDetach:
    def test_attach_and_lookup(self):
        shared = SharedPageDescriptor(1)
        dram = tier_desc(Tier.DRAM)
        shared.attach(dram)
        assert shared.copy_on(Tier.DRAM) is dram
        assert shared.copy_on(Tier.NVM) is None
        assert shared.buffered
        assert shared.resident_tiers == (Tier.DRAM,)

    def test_double_attach_rejected(self):
        shared = SharedPageDescriptor(1)
        shared.attach(tier_desc(Tier.NVM))
        with pytest.raises(RuntimeError):
            shared.attach(tier_desc(Tier.NVM))

    def test_detach(self):
        shared = SharedPageDescriptor(1)
        nvm = tier_desc(Tier.NVM)
        shared.attach(nvm)
        assert shared.detach(Tier.NVM) is nvm
        assert not shared.buffered

    def test_detach_missing(self):
        with pytest.raises(RuntimeError):
            SharedPageDescriptor(1).detach(Tier.DRAM)

    def test_ssd_copies_not_tracked(self):
        with pytest.raises(ValueError):
            SharedPageDescriptor(1).attach(tier_desc(Tier.SSD))


class TestLatching:
    def test_three_latches_exist(self):
        shared = SharedPageDescriptor(1)
        for tier in Tier:
            assert shared.latch(tier) is not None

    def test_latched_acquires_and_releases(self):
        shared = SharedPageDescriptor(1)
        with shared.latched(Tier.NVM, Tier.DRAM):
            # Reentrant: same thread can re-acquire.
            assert shared.latch(Tier.DRAM).acquire(blocking=False)
            shared.latch(Tier.DRAM).release()
        # After release another thread can take it.
        acquired = []

        def try_acquire():
            acquired.append(shared.latch(Tier.DRAM).acquire(blocking=False))
            if acquired[-1]:
                shared.latch(Tier.DRAM).release()

        t = threading.Thread(target=try_acquire)
        t.start()
        t.join()
        assert acquired == [True]

    def test_migration_leaves_third_tier_free(self):
        """An NVM→SSD migration must not block DRAM operations (§5.2)."""
        shared = SharedPageDescriptor(1)
        dram_free = []

        def check_dram():
            ok = shared.latch(Tier.DRAM).acquire(blocking=False)
            dram_free.append(ok)
            if ok:
                shared.latch(Tier.DRAM).release()

        with shared.latched(Tier.NVM, Tier.SSD):
            t = threading.Thread(target=check_dram)
            t.start()
            t.join()
        assert dram_free == [True]

    def test_opposite_order_does_not_deadlock(self):
        """Canonical acquisition order prevents ABBA deadlock."""
        shared = SharedPageDescriptor(1)
        done = threading.Event()

        def worker():
            for _ in range(200):
                with shared.latched(Tier.SSD, Tier.DRAM):
                    pass
            done.set()

        t = threading.Thread(target=worker)
        t.start()
        for _ in range(200):
            with shared.latched(Tier.DRAM, Tier.SSD):
                pass
        assert done.wait(timeout=5.0)
        t.join()


class TestUnpinWaiting:
    def test_returns_immediately_when_unpinned(self):
        shared = SharedPageDescriptor(1)
        shared.attach(tier_desc(Tier.NVM))
        shared.wait_for_unpinned(Tier.NVM)  # no exception

    def test_returns_when_no_copy(self):
        SharedPageDescriptor(1).wait_for_unpinned(Tier.NVM)

    def test_waits_for_concurrent_unpin(self):
        shared = SharedPageDescriptor(1)
        nvm = tier_desc(Tier.NVM)
        shared.attach(nvm)
        nvm.pin()

        def release_later():
            time.sleep(0.05)
            nvm.unpin()
            notify_unpin()

        t = threading.Thread(target=release_later)
        t.start()
        shared.wait_for_unpinned(Tier.NVM, timeout=2.0)
        t.join()
        assert not nvm.pinned

    def test_times_out_when_never_unpinned(self):
        shared = SharedPageDescriptor(1)
        nvm = tier_desc(Tier.NVM)
        shared.attach(nvm)
        nvm.pin()
        with pytest.raises(TimeoutError):
            shared.wait_for_unpinned(Tier.NVM, timeout=0.15)

    def test_wakeup_for_another_page_does_not_end_the_wait(self):
        # One condition serves every page: a wake-up is a hint, and the
        # waiter keeps waiting while its own copy stays pinned.
        shared = SharedPageDescriptor(1)
        nvm = tier_desc(Tier.NVM)
        shared.attach(nvm)
        nvm.pin()
        stop = threading.Event()

        def notify_other_pages():
            while not stop.is_set():
                notify_unpin()
                time.sleep(0.001)

        t = threading.Thread(target=notify_other_pages)
        t.start()
        start = time.monotonic()
        try:
            with pytest.raises(TimeoutError):
                shared.wait_for_unpinned(Tier.NVM, timeout=0.15)
        finally:
            stop.set()
            t.join()
        assert time.monotonic() - start >= 0.15
        assert nvm.pinned

    def test_unpin_without_notify_is_seen_by_the_next_recheck(self):
        shared = SharedPageDescriptor(1)
        nvm = tier_desc(Tier.NVM)
        shared.attach(nvm)
        nvm.pin()
        t = threading.Timer(0.02, nvm.unpin)
        t.start()
        shared.wait_for_unpinned(Tier.NVM, timeout=2.0)
        t.join()
        assert not nvm.pinned
