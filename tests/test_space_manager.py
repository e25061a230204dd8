"""SpaceManager: victim selection, eviction cascades, reclamation edge cases.

These pin the eviction behaviours the four-component refactor must
preserve: the all-frames-pinned failure mode, the victim-cache
admission of *clean* DRAM evictions into NVM (§3.3/Table 2), and the
self-containment dance when an NVM eviction pulls the backing page out
from under a partial DRAM layout.
"""

import random
import sys
import threading
import time

import pytest

from conftest import make_bm, make_core

from repro.core import space_manager
from repro.core.buffer_manager import BufferFullError, BufferManagerConfig
from repro.core.policy import DRAM_SSD_POLICY, SPITFIRE_EAGER, MigrationPolicy
from repro.core.space_manager import SpaceManager
from repro.faults.invariants import check_mapping_consistency
from repro.hardware.specs import PAGE_SIZE, Tier
from repro.pages.cacheline_page import CacheLinePage
from repro.pages.mini_page import MiniPage
from repro.pages.page import Page


class TestIndependentConstruction:
    def test_space_manager_builds_without_facade(self):
        core = make_core()
        assert isinstance(core.space, SpaceManager)
        # A hand-wired space manager reclaims frames on its own.
        page = core.store.allocate().page_id
        core.access.access(page, 0, 64, is_write=False)
        node = core.chain.node(Tier.DRAM)
        assert len(node.pool) == 1
        victim = core.table.get(page).copy_on(Tier.DRAM)
        core.space.evict_from_node(node, victim)
        assert len(node.pool) == 0

    def test_ensure_space_noop_when_room(self):
        core = make_core()
        core.space.ensure_space(core.chain.node(Tier.DRAM), PAGE_SIZE)
        assert len(core.chain.node(Tier.DRAM).pool) == 0


class TestAllFramesPinned:
    def test_pinned_pool_raises_after_retries(self):
        # 1 GB at 4 pages/GB = a 4-frame DRAM pool, no NVM.
        bm = make_bm(dram_gb=1.0, nvm_gb=0.0, policy=DRAM_SSD_POLICY)
        pinned = [bm.fetch_page(bm.allocate_page()) for _ in range(4)]
        extra = bm.allocate_page()
        with pytest.raises(BufferFullError, match="pinned"):
            bm.read(extra)
        # Releasing a pin makes the same access succeed.
        bm.release_page(pinned[0])
        assert bm.read(extra).served_tier is Tier.DRAM
        for handle in pinned[1:]:
            bm.release_page(handle)

    def test_direct_ensure_space_raises_when_all_pinned(self):
        bm = make_bm(dram_gb=1.0, nvm_gb=0.0, policy=DRAM_SSD_POLICY)
        for _ in range(4):
            bm.fetch_page(bm.allocate_page())
        with pytest.raises(BufferFullError, match="pinned"):
            bm.space.ensure_space(bm.chain.node(Tier.DRAM), PAGE_SIZE)


    def test_raises_after_the_same_replacer_probes_and_a_bounded_wait(
            self, monkeypatch):
        # CLOCK state is simulated state: backing off between empty
        # probes must not change how many there are (9 victim searches
        # of 2 * 4 + 2 sweeps each, as before the back-off existed).
        bm = make_bm(dram_gb=1.0, nvm_gb=0.0, policy=DRAM_SSD_POLICY)
        for _ in range(4):
            bm.fetch_page(bm.allocate_page())
        replacer = bm.chain.node(Tier.DRAM).pool.replacer
        probes = []
        victim = replacer.victim
        monkeypatch.setattr(replacer, "victim",
                            lambda: probes.append(1) or victim())
        pauses = []
        monkeypatch.setattr(space_manager.time, "sleep", pauses.append)
        with pytest.raises(BufferFullError, match="pinned"):
            bm.space.ensure_space(bm.chain.node(Tier.DRAM), PAGE_SIZE)
        assert len(probes) == 90
        assert len(pauses) == 8 and pauses == sorted(pauses)
        assert sum(pauses) < 0.05


class TestConcurrentReservation:
    def test_claim_released_during_a_pause_is_found(self, monkeypatch):
        # Every frame is claimed by a "concurrent evictor"; it lets go
        # of one while this reservation pauses.  Spinning through the
        # probes without a pause (and so without yielding the GIL) used
        # to give up with "all DRAM frames are pinned".
        bm = make_bm(dram_gb=1.0, nvm_gb=0.0, policy=DRAM_SSD_POLICY)
        for _ in range(4):
            bm.read(bm.allocate_page())
        pool = bm.chain.node(Tier.DRAM).pool
        claimed = [pool.pick_victim() for _ in range(4)]
        assert None not in claimed and pool.pick_victim() is None

        def evictor_finishes(_seconds):
            if len(claimed) == 4:
                pool.unclaim(claimed.pop())

        monkeypatch.setattr(space_manager.time, "sleep", evictor_finishes)
        bm.space.ensure_space(bm.chain.node(Tier.DRAM), PAGE_SIZE)
        assert len(pool) == 3
        for descriptor in claimed:
            pool.unclaim(descriptor)

    def test_threaded_reservations_keep_every_frame_tracked(self):
        # More threads than cores, switching every few bytecodes, all
        # missing into 16 DRAM / 32 NVM frames.  A frame freed by one
        # thread and refilled by another before the first had told the
        # replacer used to end up occupied but untracked — unevictable —
        # until no frame was left and a read failed with "all DRAM
        # frames are pinned".
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_ in range(4):
                bm = make_bm(dram_gb=2.0, nvm_gb=4.0, policy=SPITFIRE_EAGER,
                             pages_per_gb=8)
                pages = [bm.allocate_page() for _ in range(64)]
                errors: list[BaseException] = []

                def worker(index):
                    rng = random.Random(100 * round_ + index)
                    try:
                        for _ in range(200):
                            bm.read(pages[rng.randrange(len(pages))], 0, 256)
                    except BaseException as exc:  # surfaced below
                        errors.append(exc)

                threads = [threading.Thread(target=worker, args=(i,),
                                            daemon=True) for i in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert not errors, f"worker raised: {errors[:3]}"
                assert bm.stats.reads == 6 * 200
                check_mapping_consistency(bm).raise_if_failed()
                for node in bm.chain:
                    assert len(node.pool.replacer) == len(node.pool), \
                        f"{node.tier.name}: occupied frames left the replacer"
        finally:
            sys.setswitchinterval(interval)

    def test_threaded_cascading_evictions_keep_every_frame_tracked(self):
        # Three tiers with NVM as DRAM's victim cache (N_r = 0, N_w = 1):
        # every miss lands in DRAM, its victim is admitted to NVM, and
        # NVM's victim is dropped or written back — the cascade down the
        # whole chain, from six threads switching every few bytecodes,
        # a third of them writes.  Pools of 8 DRAM and 16 NVM frames are
        # no smaller than the thread count, yet that does not keep the
        # cascade clear of the latch protocol's known ABBA deadlock
        # (DESIGN §10): this stress hangs in a few runs out of a hundred,
        # and the watchdog turns such a hang into a failure.
        policy = MigrationPolicy(1.0, 1.0, 0.0, 1.0, name="victim-cache")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_ in range(3):
                bm = make_bm(dram_gb=2.0, nvm_gb=4.0, policy=policy,
                             pages_per_gb=4)
                pages = [bm.allocate_page() for _ in range(64)]
                errors: list[BaseException] = []

                def worker(index):
                    rng = random.Random(1000 * round_ + index)
                    try:
                        for _ in range(150):
                            page = pages[rng.randrange(len(pages))]
                            if rng.random() < 0.3:
                                bm.write(page, 0, 64)
                            else:
                                bm.read(page, 0, 256)
                    except BaseException as exc:  # surfaced below
                        errors.append(exc)

                threads = [threading.Thread(target=worker, args=(i,),
                                            daemon=True) for i in range(6)]
                for thread in threads:
                    thread.start()
                # The watchdog: a hang fails here instead of stalling
                # the run (the threads are daemons).
                deadline = time.monotonic() + 60
                for thread in threads:
                    thread.join(timeout=max(0.0, deadline - time.monotonic()))
                assert not any(thread.is_alive() for thread in threads), \
                    "cascading evictions hung"
                assert not errors, f"worker raised: {errors[:3]}"
                stats = bm.stats
                assert stats.reads + stats.writes == 6 * 150
                assert stats.dram_to_nvm and stats.nvm_evictions
                check_mapping_consistency(bm).raise_if_failed()
                for node in bm.chain:
                    assert len(node.pool.replacer) == len(node.pool), \
                        f"{node.tier.name}: occupied frames left the replacer"
        finally:
            sys.setswitchinterval(interval)


class TestCleanVictimCache:
    def test_clean_dram_evictions_admitted_into_nvm(self):
        # Fetches bypass NVM (N_r=0) but evictions are always admitted
        # (N_w=1): NVM fills purely as a victim cache for DRAM.
        policy = MigrationPolicy(1.0, 1.0, 0.0, 1.0, name="victim-cache")
        bm = make_bm(dram_gb=0.5, nvm_gb=2.0, policy=policy)
        pages = [bm.allocate_page() for _ in range(4)]
        for page in pages:
            bm.read(page)
        assert bm.stats.ssd_to_nvm == 0  # no fetch ever landed in NVM
        assert bm.stats.dram_to_nvm >= 2  # clean victims migrated down
        assert bm.stats.dram_to_ssd == 0  # clean: nothing written to SSD
        evicted = set(pages) - bm.resident_pages(Tier.DRAM)
        assert evicted and evicted <= bm.resident_pages(Tier.NVM)
        # Victim-cache copies of clean pages stay clean.
        for page in evicted:
            assert not bm.table.get(page).copy_on(Tier.NVM).dirty

    def test_clean_eviction_dropped_when_lower_copy_exists(self):
        # Eager everything: fetches land in NVM and climb to DRAM, so a
        # clean DRAM victim already has a live NVM copy — it is dropped,
        # not re-admitted (the SSD copy is valid too).
        bm = make_bm(dram_gb=0.5, nvm_gb=2.0, policy=SPITFIRE_EAGER)
        pages = [bm.allocate_page() for _ in range(4)]
        for page in pages:
            bm.read(page)
        assert bm.stats.clean_drops >= 2
        assert bm.stats.dram_to_nvm == 0

    def test_dirty_eviction_without_admission_writes_back(self):
        # N_w=0 and no admission: dirty DRAM victims pay the SSD write.
        policy = MigrationPolicy(1.0, 1.0, 0.0, 0.0, name="no-admit")
        bm = make_bm(dram_gb=0.5, nvm_gb=2.0, policy=policy)
        pages = [bm.allocate_page() for _ in range(4)]
        for page in pages:
            bm.write(page, 0, 64)
        assert bm.stats.dram_to_ssd >= 2
        assert bm.resident_pages(Tier.NVM) == set()


class TestNvmEvictionSelfContainment:
    def _partial_dram_copy(self, mini_pages: bool):
        config = BufferManagerConfig(fine_grained=True, mini_pages=mini_pages)
        bm = make_bm(dram_gb=2.0, nvm_gb=1.0, policy=SPITFIRE_EAGER,
                     config=config)
        page = bm.allocate_page()
        # Eager fetch lands in NVM, then climbs into a partial DRAM view.
        bm.read(page, 0, 64)
        dram_desc = bm.table.get(page).copy_on(Tier.DRAM)
        nvm_desc = bm.table.get(page).copy_on(Tier.NVM)
        assert isinstance(dram_desc.content, MiniPage if mini_pages
                          else CacheLinePage)
        assert nvm_desc is not None
        return bm, page, dram_desc, nvm_desc

    @pytest.mark.parametrize("mini_pages", [False, True])
    def test_partial_copy_promoted_before_backing_evicts(self, mini_pages):
        bm, page, dram_desc, nvm_desc = self._partial_dram_copy(mini_pages)
        loads_before = bm.stats.fine_grained_loads
        bm.space.evict_from_node(bm.chain.node(Tier.NVM), nvm_desc)
        # The NVM copy is gone; the DRAM copy is now a self-contained
        # full page, with the missing lines loaded before the eviction.
        assert bm.table.get(page).copy_on(Tier.NVM) is None
        assert isinstance(dram_desc.content, Page)
        assert bm.stats.fine_grained_loads > loads_before
        # A mini-page grows to a full frame; occupancy must follow.
        pool = bm.pools[Tier.DRAM]
        assert pool.used_bytes == PAGE_SIZE * len(pool)
        # The page stays readable without its NVM backing.
        assert bm.read(page, 0, 64).served_tier is Tier.DRAM

    def test_dirty_lines_written_back_before_promotion(self):
        bm, page, dram_desc, nvm_desc = self._partial_dram_copy(False)
        bm.write(page, 0, 64)
        assert dram_desc.dirty and dram_desc.content.dirty_count > 0
        bm.space.evict_from_node(bm.chain.node(Tier.NVM), nvm_desc)
        # The write-back marked the (now-evicting) NVM copy dirty, so
        # its content was persisted down rather than silently dropped.
        assert isinstance(dram_desc.content, Page)
        assert bm.read(page, 0, 64).served_tier is Tier.DRAM
