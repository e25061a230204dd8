"""Genuinely multi-threaded buffer-manager exercises.

The paper's headline over HyMem is that Spitfire is *multi-threaded*:
these tests drive the buffer manager, mapping table, and migration
latching protocol from real threads and check structural invariants
afterwards.
"""

import random
import threading

from conftest import make_bm

from repro.core.policy import SPITFIRE_EAGER, SPITFIRE_LAZY, MigrationPolicy


def run_threads(worker, count=4):
    errors: list[BaseException] = []

    def wrapped(index):
        try:
            worker(index)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, f"worker raised: {errors[:3]}"


def check_pool_invariants(bm):
    for tier, pool in bm.pools.items():
        with pool.lock:
            framed = list(pool._frames.items())
            used = pool.used_bytes
        # Every occupied frame's shared descriptor points back at it.
        for frame, descriptor in framed:
            assert descriptor.frame_index == frame
            shared = bm.table.get(descriptor.page_id)
            assert shared is not None, \
                f"missing table entry for {descriptor.page_id}"
            assert shared.copy_on(tier) is descriptor
        assert used == sum(d.entry_bytes for _, d in framed)
        assert used <= pool.capacity_bytes


class TestConcurrentAccess:
    def test_parallel_reads_eager(self):
        bm = make_bm(dram_gb=2.0, nvm_gb=4.0, policy=SPITFIRE_EAGER,
                     pages_per_gb=8)
        pages = [bm.allocate_page() for _ in range(64)]

        def worker(index):
            rng = random.Random(index)
            for _ in range(400):
                bm.read(pages[rng.randrange(len(pages))], 0, 256)

        run_threads(worker)
        assert bm.stats.reads == 1600
        check_pool_invariants(bm)

    def test_parallel_mixed_lazy(self):
        bm = make_bm(dram_gb=2.0, nvm_gb=4.0, policy=SPITFIRE_LAZY,
                     pages_per_gb=8)
        pages = [bm.allocate_page() for _ in range(64)]

        def worker(index):
            rng = random.Random(100 + index)
            for _ in range(400):
                page = pages[rng.randrange(len(pages))]
                if rng.random() < 0.5:
                    bm.read(page, 0, 256)
                else:
                    bm.write(page, 0, 64)

        run_threads(worker)
        assert bm.stats.operations == 1600
        check_pool_invariants(bm)

    def test_parallel_pin_release(self):
        bm = make_bm(dram_gb=4.0, nvm_gb=8.0, policy=SPITFIRE_EAGER,
                     pages_per_gb=8)
        pages = [bm.allocate_page() for _ in range(16)]

        def worker(index):
            rng = random.Random(index)
            for _ in range(200):
                page = pages[rng.randrange(len(pages))]
                descriptor = bm.fetch_page(page, for_write=rng.random() < 0.3)
                descriptor.content.write_record(index, bytes([index]))
                bm.release_page(descriptor)

        run_threads(worker)
        # No pins may survive the workers.
        for pool in bm.pools.values():
            for descriptor in pool.descriptors():
                assert not descriptor.pinned
        check_pool_invariants(bm)

    def test_parallel_flush_and_writes(self):
        bm = make_bm(dram_gb=2.0, nvm_gb=4.0, policy=SPITFIRE_EAGER,
                     pages_per_gb=8)
        pages = [bm.allocate_page() for _ in range(32)]
        stop = threading.Event()

        def flusher(_index):
            while not stop.is_set():
                bm.flush_dirty_dram()

        def writer(index):
            rng = random.Random(index)
            for _ in range(300):
                bm.write(pages[rng.randrange(len(pages))], 0, 64)

        errors = []

        def guarded(fn, index):
            try:
                fn(index)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        flusher_thread = threading.Thread(target=guarded, args=(flusher, 0))
        writers = [threading.Thread(target=guarded, args=(writer, i))
                   for i in range(1, 4)]
        flusher_thread.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        flusher_thread.join()
        assert not errors
        check_pool_invariants(bm)

    def test_concurrent_policy_swap(self):
        bm = make_bm(dram_gb=2.0, nvm_gb=4.0, policy=SPITFIRE_EAGER,
                     pages_per_gb=8)
        pages = [bm.allocate_page() for _ in range(32)]
        policies = [SPITFIRE_EAGER, SPITFIRE_LAZY,
                    MigrationPolicy(0.1, 0.1, 0.5, 0.5)]
        stop = threading.Event()

        def tuner(_index):
            rng = random.Random(0)
            while not stop.is_set():
                bm.set_policy(policies[rng.randrange(len(policies))])

        def worker(index):
            rng = random.Random(index)
            for _ in range(300):
                bm.read(pages[rng.randrange(len(pages))], 0, 128)

        errors = []

        def guarded(fn, index):
            try:
                fn(index)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        tuner_thread = threading.Thread(target=guarded, args=(tuner, 0))
        workers = [threading.Thread(target=guarded, args=(worker, i))
                   for i in range(3)]
        tuner_thread.start()
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        stop.set()
        tuner_thread.join()
        assert not errors
        check_pool_invariants(bm)
