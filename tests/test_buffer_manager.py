"""Buffer manager core behaviour: migration paths, eviction, policies.

Deterministic policies (probabilities of exactly 0 or 1) pin down each
data-flow path of Fig. 3; the probabilistic blends are covered by the
policy tests and the experiment-level shape tests.
"""

import pytest

from conftest import make_bm

from repro.core.buffer_manager import BufferFullError
from repro.core.policy import (
    DRAM_SSD_POLICY,
    NVM_SSD_POLICY,
    SPITFIRE_EAGER,
    SPITFIRE_LAZY,
    MigrationPolicy,
)
from repro.hardware.specs import Tier

#: Serve everything from NVM: never promote to DRAM.
NVM_PINNED = MigrationPolicy(d_r=0.0, d_w=0.0, n_r=1.0, n_w=1.0)
#: Fetch to DRAM only; never touch NVM.
DRAM_ONLY_FLOW = MigrationPolicy(d_r=1.0, d_w=1.0, n_r=0.0, n_w=0.0)


class TestAllocation:
    def test_pages_born_on_ssd(self, eager_bm):
        page = eager_bm.allocate_page()
        assert eager_bm.page_exists(page)
        assert page not in eager_bm.resident_pages(Tier.DRAM)
        assert page not in eager_bm.resident_pages(Tier.NVM)

    def test_explicit_page_id(self, eager_bm):
        assert eager_bm.allocate_page(7) == 7
        with pytest.raises(ValueError):
            eager_bm.allocate_page(7)

    def test_requires_ssd_tier(self):
        from repro.hardware.cost_model import StorageHierarchy
        from repro.hardware.pricing import HierarchyShape

        hierarchy = StorageHierarchy(HierarchyShape(1, 1, 0))
        from repro.core.buffer_manager import BufferManager

        with pytest.raises(ValueError):
            BufferManager(hierarchy, SPITFIRE_EAGER)


class TestReadPaths:
    def test_miss_fetches_via_nvm_when_eager(self, eager_bm):
        page = eager_bm.allocate_page()
        result = eager_bm.read(page)
        assert not result.hit
        assert result.served_tier is Tier.DRAM
        # Eager N installs the page in NVM, eager D promotes it onward.
        assert page in eager_bm.resident_pages(Tier.NVM)
        assert page in eager_bm.resident_pages(Tier.DRAM)
        assert eager_bm.stats.ssd_to_nvm == 1
        assert eager_bm.stats.nvm_to_dram == 1

    def test_dram_hit_on_second_read(self, eager_bm):
        page = eager_bm.allocate_page()
        eager_bm.read(page)
        result = eager_bm.read(page)
        assert result.hit
        assert result.served_tier is Tier.DRAM
        assert eager_bm.stats.dram_hits == 1

    def test_nvm_direct_read_when_dram_bypassed(self):
        bm = make_bm(policy=NVM_PINNED)
        page = bm.allocate_page()
        bm.read(page)
        result = bm.read(page)
        assert result.served_tier is Tier.NVM
        assert result.bypassed_dram
        assert page not in bm.resident_pages(Tier.DRAM)
        assert bm.stats.nvm_direct_reads >= 1

    def test_ssd_to_dram_bypasses_nvm(self):
        bm = make_bm(policy=DRAM_ONLY_FLOW)
        page = bm.allocate_page()
        result = bm.read(page)
        assert result.served_tier is Tier.DRAM
        assert page not in bm.resident_pages(Tier.NVM)
        assert bm.stats.ssd_to_dram == 1

    def test_missing_page_raises(self, eager_bm):
        with pytest.raises(KeyError):
            eager_bm.read(999)

    def test_nvm_only_hierarchy_forces_nvm(self):
        bm = make_bm(dram_gb=0.0, policy=NVM_SSD_POLICY)
        page = bm.allocate_page()
        result = bm.read(page)
        assert result.served_tier is Tier.NVM

    def test_dram_only_hierarchy(self):
        bm = make_bm(nvm_gb=0.0, policy=DRAM_SSD_POLICY)
        page = bm.allocate_page()
        assert bm.read(page).served_tier is Tier.DRAM
        assert not bm.has_nvm


class TestWritePaths:
    def test_write_dirties_dram_copy(self, eager_bm):
        page = eager_bm.allocate_page()
        eager_bm.write(page, 0, 100)
        descriptor = eager_bm.table.get(page).copy_on(Tier.DRAM)
        assert descriptor is not None and descriptor.dirty

    def test_nvm_in_place_write_persists(self):
        bm = make_bm(policy=NVM_PINNED)
        page = bm.allocate_page()
        bm.read(page)  # install on NVM
        barriers_before = bm.hierarchy.device(Tier.NVM).snapshot_counters().persist_barriers
        result = bm.write(page, 0, 100)
        assert result.served_tier is Tier.NVM
        nvm_desc = bm.table.get(page).copy_on(Tier.NVM)
        assert nvm_desc.dirty
        counters = bm.hierarchy.device(Tier.NVM).snapshot_counters()
        assert counters.persist_barriers == barriers_before + 1
        assert bm.stats.nvm_direct_writes == 1

    def test_write_miss_fetches_page(self, eager_bm):
        page = eager_bm.allocate_page()
        result = eager_bm.write(page, 0, 64)
        assert not result.hit
        assert eager_bm.stats.ssd_fetches == 1


class TestEviction:
    def test_clean_dram_eviction_drops(self):
        bm = make_bm(dram_gb=1.0, nvm_gb=0.0, policy=DRAM_SSD_POLICY)  # 4 frames
        pages = [bm.allocate_page() for _ in range(6)]
        for page in pages:
            bm.read(page)
        assert len(bm.pools[Tier.DRAM]) == 4
        assert bm.stats.clean_drops == 2
        assert bm.stats.dram_to_ssd == 0

    def test_dirty_dram_eviction_writes_to_ssd_without_nvm(self):
        bm = make_bm(dram_gb=1.0, nvm_gb=0.0, policy=DRAM_SSD_POLICY)
        pages = [bm.allocate_page() for _ in range(6)]
        for page in pages:
            bm.write(page, 0, 64)
        assert bm.stats.dram_to_ssd >= 2

    def test_dirty_dram_eviction_admitted_to_nvm(self):
        bm = make_bm(dram_gb=1.0, nvm_gb=4.0, policy=DRAM_ONLY_FLOW)
        # n_w = 0: dirty evictions must go to SSD, never NVM.
        pages = [bm.allocate_page() for _ in range(6)]
        for page in pages:
            bm.write(page, 0, 64)
        assert bm.stats.dram_to_nvm == 0
        assert bm.stats.dram_to_ssd >= 2

        bm2 = make_bm(dram_gb=1.0, nvm_gb=4.0,
                      policy=MigrationPolicy(1.0, 1.0, 0.0, 1.0))
        pages = [bm2.allocate_page() for _ in range(6)]
        for page in pages:
            bm2.write(page, 0, 64)
        assert bm2.stats.dram_to_nvm >= 2
        assert bm2.stats.dram_to_ssd == 0

    def test_clean_eviction_victim_cache(self):
        """Clean evictions are admitted to NVM with probability N_w —
        the NVM buffer acts as a victim cache (Table 2's RO rows)."""
        bm = make_bm(dram_gb=1.0, nvm_gb=4.0,
                     policy=MigrationPolicy(1.0, 1.0, 0.0, 1.0))
        pages = [bm.allocate_page() for _ in range(6)]
        for page in pages:
            bm.read(page)
        assert bm.stats.dram_to_nvm >= 2
        # The evicted pages are now NVM-resident.
        assert len(bm.resident_pages(Tier.NVM)) >= 2

    def test_dirty_nvm_eviction_writes_to_ssd(self):
        bm = make_bm(dram_gb=0.0, nvm_gb=1.0, policy=NVM_SSD_POLICY)  # 4 frames
        pages = [bm.allocate_page() for _ in range(6)]
        for page in pages:
            bm.write(page, 0, 64)
        assert bm.stats.nvm_to_ssd >= 2
        # Evicted content is durable on SSD.
        assert bm.stats.nvm_evictions >= 2

    def test_nvm_eviction_leaves_dram_copy(self, ):
        bm = make_bm(dram_gb=2.0, nvm_gb=1.0, policy=SPITFIRE_EAGER)
        pages = [bm.allocate_page() for _ in range(6)]
        for page in pages:
            bm.read(page)
        # NVM (4 frames) overflowed; DRAM (8 frames) keeps its copies.
        assert len(bm.resident_pages(Tier.DRAM)) == 6
        assert len(bm.resident_pages(Tier.NVM)) <= 4

    def test_pinned_pages_never_evicted(self):
        bm = make_bm(dram_gb=1.0, nvm_gb=0.0, policy=DRAM_SSD_POLICY)
        pinned = [bm.allocate_page() for _ in range(4)]
        descriptors = [bm.fetch_page(p) for p in pinned]
        overflow = bm.allocate_page()
        with pytest.raises(BufferFullError):
            bm.read(overflow)
        for descriptor in descriptors:
            bm.release_page(descriptor)
        bm.read(overflow)  # now succeeds
        assert overflow in bm.resident_pages(Tier.DRAM)


class TestContentIntegrity:
    def test_content_follows_migrations(self):
        bm = make_bm(policy=SPITFIRE_EAGER)
        page = bm.allocate_page()
        descriptor = bm.fetch_page(page, for_write=True)
        descriptor.content.write_record(0, b"payload")
        bm.release_page(descriptor)
        # Force the page down and out of every buffer.
        bm.flush_all()
        bm.simulate_crash()
        durable = bm.store.peek(page)
        assert durable.read_record(0) == b"payload"

    def test_eviction_preserves_dirty_content(self):
        bm = make_bm(dram_gb=1.0, nvm_gb=0.0, policy=DRAM_SSD_POLICY)
        page = bm.allocate_page()
        descriptor = bm.fetch_page(page, for_write=True)
        descriptor.content.write_record(3, b"x")
        bm.release_page(descriptor)
        # Evict by filling the pool.
        for _ in range(5):
            bm.read(bm.allocate_page())
        assert bm.store.peek(page).read_record(3) == b"x"


class TestFlushing:
    def test_flush_dirty_dram_clears_dirty(self):
        bm = make_bm(nvm_gb=0.0, policy=DRAM_SSD_POLICY)
        page = bm.allocate_page()
        bm.write(page, 0, 64)
        assert bm.flush_dirty_dram() == 1
        descriptor = bm.table.get(page).copy_on(Tier.DRAM)
        assert not descriptor.dirty
        assert bm.stats.dirty_page_flushes == 1

    def test_flush_prefers_nvm_copy(self):
        bm = make_bm(policy=SPITFIRE_EAGER)
        page = bm.allocate_page()
        bm.write(page, 0, 64)  # in DRAM and NVM (eager)
        ssd_writes_before = bm.hierarchy.device(Tier.SSD).snapshot_counters().write_ops
        bm.flush_dirty_dram()
        ssd_writes_after = bm.hierarchy.device(Tier.SSD).snapshot_counters().write_ops
        assert ssd_writes_after == ssd_writes_before  # persisted via NVM
        assert bm.table.get(page).copy_on(Tier.NVM).dirty

    def test_flush_skips_nvm_dirty_pages(self):
        """Dirty NVM pages are persistent; no flushing needed (§5.2)."""
        bm = make_bm(policy=NVM_PINNED)
        page = bm.allocate_page()
        bm.read(page)
        bm.write(page, 0, 64)  # dirty on NVM
        assert bm.flush_dirty_dram() == 0

    def test_flush_all_pushes_everything_to_ssd(self):
        bm = make_bm(policy=NVM_PINNED)
        page = bm.allocate_page()
        descriptor = bm.fetch_page(page, for_write=True)
        descriptor.content.write_record(0, b"z")
        bm.release_page(descriptor)
        bm.flush_all()
        assert bm.store.peek(page).read_record(0) == b"z"


class TestCrashRecovery:
    def test_crash_drops_dram_keeps_nvm(self):
        bm = make_bm(policy=SPITFIRE_EAGER)
        page = bm.allocate_page()
        bm.read(page)
        bm.simulate_crash()
        assert not bm.resident_pages(Tier.DRAM)
        assert page in bm.resident_pages(Tier.NVM)
        assert len(bm.table) == 0

    def test_recover_mapping_table_from_nvm(self):
        bm = make_bm(policy=SPITFIRE_EAGER)
        pages = [bm.allocate_page() for _ in range(3)]
        for page in pages:
            bm.read(page)
        bm.simulate_crash()
        recovered = bm.recover_mapping_table()
        assert recovered == len(bm.resident_pages(Tier.NVM))
        for page in bm.resident_pages(Tier.NVM):
            shared = bm.table.get(page)
            assert shared is not None
            assert shared.copy_on(Tier.NVM) is not None

    def test_reads_work_after_recovery(self):
        bm = make_bm(policy=SPITFIRE_EAGER)
        page = bm.allocate_page()
        bm.read(page)
        bm.simulate_crash()
        bm.recover_mapping_table()
        result = bm.read(page)
        assert result.hit  # served from the recovered NVM copy


class TestStatsAndObservability:
    def test_operation_counters(self, eager_bm):
        page = eager_bm.allocate_page()
        eager_bm.read(page)
        eager_bm.write(page, 0, 10)
        assert eager_bm.stats.reads == 1
        assert eager_bm.stats.writes == 1
        assert eager_bm.stats.operations == 2

    def test_inclusivity_sampling(self, eager_bm):
        page = eager_bm.allocate_page()
        eager_bm.read(page)  # in both buffers under the eager policy
        ratio = eager_bm.sample_inclusivity()
        assert ratio == pytest.approx(1.0)
        assert eager_bm.inclusivity.mean_ratio() == pytest.approx(1.0)

    def test_nvm_write_volume(self, eager_bm):
        page = eager_bm.allocate_page()
        eager_bm.read(page)
        assert eager_bm.nvm_write_volume_gb() > 0

    def test_reset_stats(self, eager_bm):
        page = eager_bm.allocate_page()
        eager_bm.read(page)
        eager_bm.reset_stats()
        assert eager_bm.stats.operations == 0

    def test_policy_swap_at_runtime(self, eager_bm):
        eager_bm.set_policy(SPITFIRE_LAZY)
        assert eager_bm.policy is SPITFIRE_LAZY


class TestPriming:
    def test_prime_page_installs_clean_copy(self, eager_bm):
        page = eager_bm.allocate_page()
        assert eager_bm.prime_page(Tier.NVM, page)
        descriptor = eager_bm.table.get(page).copy_on(Tier.NVM)
        assert descriptor is not None and not descriptor.dirty

    def test_prime_respects_capacity(self):
        bm = make_bm(dram_gb=1.0, nvm_gb=0.0, policy=DRAM_SSD_POLICY)
        pages = [bm.allocate_page() for _ in range(6)]
        primed = [bm.prime_page(Tier.DRAM, p) for p in pages]
        assert primed.count(True) == 4  # pool holds 4 frames

    def test_prime_duplicate_refused(self, eager_bm):
        page = eager_bm.allocate_page()
        assert eager_bm.prime_page(Tier.DRAM, page)
        assert not eager_bm.prime_page(Tier.DRAM, page)

    def test_prime_unknown_page_refused(self, eager_bm):
        assert not eager_bm.prime_page(Tier.DRAM, 12345)
