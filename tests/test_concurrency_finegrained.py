"""Threaded stress of HyMem's cache-line pages (§2.1) shared by six
threads.

Every thread reads and writes overlapping lines of the same few dozen
pages, so lines are loaded into copies other threads are serving,
partial copies are evicted (their dirty lines written back), and NVM
evictions make the partial copies above them self-contained while other
threads serve them.  A partial copy is served, and its layout changed,
under the page's DRAM latch; the masks of every partial layout share
one lock.  The oracle is the mapping table against the pools and the
store (``check_mapping_consistency``) plus the layouts' own invariants:
a partial copy's dirty lines are resident lines, and the NVM page
backing it is the page's NVM copy.

Mini pages are not raced here: a mini page whose own NVM copy is
evicted while its promotion makes room comes back as a cache-line page
over a backing page NVM no longer holds — single-threaded too, and
pinned by the ``mini_pages`` eviction digest — and two promotions can
still deadlock in the cascade's latch order (ROADMAP item 5).

Pools of 8 DRAM and 16 NVM frames are no smaller than the thread count:
smaller ones are the latch protocol's known deadlock regime (DESIGN
§10), not this file's.  Each round runs under a watchdog that fails
rather than hangs.
"""

from __future__ import annotations

import random
import sys
import threading
import time

from conftest import make_bm

from repro.core.buffer_manager import BufferManagerConfig
from repro.core.policy import SPITFIRE_EAGER
from repro.faults.invariants import check_mapping_consistency
from repro.hardware.specs import PAGE_SIZE, Tier
from repro.pages.cacheline_page import CacheLinePage
from repro.pages.granularity import LoadingUnit

THREADS = 6
OPS = 150
PAGES = 48
WATCHDOG_S = 60

#: Fig. 11's layout (cache-line pages, no mini pages) at a loading unit
#: smaller than a tuple, so most accesses load; under Spitfire-Eager
#: every fetch lands in NVM and climbs, so both pools evict.
CONFIG = BufferManagerConfig(fine_grained=True, mini_pages=False,
                             loading_unit=LoadingUnit(128))


def _layout_problems(bm) -> list[str]:
    problems = []
    for shared in bm.table:
        dram = shared.copy_on(Tier.DRAM)
        if dram is None:
            continue
        content = dram.content
        if not isinstance(content, CacheLinePage):
            continue
        if content.dirty_mask & ~content.resident_mask:
            problems.append(f"page {shared.page_id}: dirty lines "
                            "that are not resident")
        nvm = shared.copy_on(Tier.NVM)
        if nvm is None:
            problems.append(f"page {shared.page_id}: partial copy "
                            "without its NVM backing page")
        elif content.nvm_page is not nvm.content:
            problems.append(f"page {shared.page_id}: partial copy backed "
                            "by a page that is not its NVM copy")
    return problems


def test_threaded_cacheline_pages_stay_consistent():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for round_ in range(3):
            bm = make_bm(dram_gb=2.0, nvm_gb=4.0, policy=SPITFIRE_EAGER,
                         config=CONFIG)
            assert bm.pools[Tier.DRAM].max_entries >= THREADS
            pages = list(range(PAGES))
            bm.allocate_pages(pages)
            errors: list[BaseException] = []

            def worker(index):
                rng = random.Random(1000 * round_ + index)
                try:
                    for _ in range(OPS):
                        # Skewed, so hot pages stay partial and gather
                        # lines while the tail keeps both pools evicting.
                        page = pages[int(PAGES * rng.random() ** 2)]
                        offset = rng.randrange(0, PAGE_SIZE - 256, 64)
                        nbytes = rng.choice((64, 256, 1024))
                        if rng.random() < 0.3:
                            bm.write(page, offset, nbytes)
                        else:
                            bm.read(page, offset, nbytes)
                except BaseException as exc:  # surfaced below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,),
                                        daemon=True)
                       for i in range(THREADS)]
            for thread in threads:
                thread.start()
            # The watchdog: a hang fails here instead of stalling the
            # run (the threads are daemons).
            deadline = time.monotonic() + WATCHDOG_S
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(thread.is_alive() for thread in threads), \
                "cache-line page stress hung"
            assert not errors, f"worker raised: {errors[:3]}"
            stats = bm.stats
            assert stats.reads + stats.writes == THREADS * OPS
            assert stats.fine_grained_loads and stats.dram_evictions
            assert stats.nvm_evictions
            check_mapping_consistency(bm).raise_if_failed()
            assert not _layout_problems(bm)
            for node in bm.chain:
                assert len(node.pool.replacer) == len(node.pool), \
                    f"{node.tier.name}: occupied frames left the replacer"
    finally:
        sys.setswitchinterval(interval)
