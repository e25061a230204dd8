"""The HyMem baseline configuration (§2.1, §6.5)."""

from repro.core.hymem import make_hymem
from repro.core.policy import HYMEM_POLICY, NvmAdmission
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale, Tier

SCALE = SimulationScale(pages_per_gb=4)


def hierarchy() -> StorageHierarchy:
    return StorageHierarchy(HierarchyShape(1.0, 4.0, 100.0), SCALE)


class TestConstruction:
    def test_policy_is_hymem(self):
        bm = make_hymem(hierarchy())
        assert bm.policy is HYMEM_POLICY
        assert bm.policy.nvm_admission is NvmAdmission.ADMISSION_QUEUE

    def test_admission_queue_created(self):
        bm = make_hymem(hierarchy())
        (queue,) = bm.admission_queues
        # §6.5 recommendation: half the NVM page count (16 pages here).
        assert queue.capacity == 8

    def test_explicit_queue_size(self):
        bm = make_hymem(hierarchy(), admission_queue_size=3)
        assert [queue.capacity for queue in bm.admission_queues] == [3]

    def test_default_loading_unit_is_cache_line(self):
        bm = make_hymem(hierarchy())
        assert bm.config.loading_unit.nbytes == 64

    def test_optimizations_can_be_disabled(self):
        bm = make_hymem(hierarchy(), fine_grained=False, mini_pages=False)
        assert not bm.config.fine_grained
        assert not bm.config.mini_pages

    def test_mini_pages_require_fine_grained(self):
        bm = make_hymem(hierarchy(), fine_grained=False, mini_pages=True)
        assert not bm.config.mini_pages


class TestHymemDataFlow:
    def test_fetches_bypass_nvm(self):
        bm = make_hymem(hierarchy(), fine_grained=False, mini_pages=False)
        page = bm.allocate_page()
        bm.read(page)
        # N_r = 0: SSD fetches go straight to DRAM (§2.1).
        assert page in bm.resident_pages(Tier.DRAM)
        assert page not in bm.resident_pages(Tier.NVM)
        assert bm.stats.ssd_to_dram == 1
        assert bm.stats.ssd_to_nvm == 0

    def test_admission_queue_gates_nvm_entry(self):
        # DRAM pool of 4 frames; evictions consult the queue.
        bm = make_hymem(
            StorageHierarchy(HierarchyShape(1.0, 4.0, 100.0), SCALE),
            fine_grained=False, mini_pages=False,
        )
        pages = [bm.allocate_page() for _ in range(5)]
        # Two passes: first evictions are denied (queued), the repeat
        # evictions of the same pages are admitted.
        for _ in range(2):
            for page in pages:
                bm.read(page)
        assert bm.admission_queues[0].considerations > 0
        assert bm.stats.dram_to_nvm >= 1
        assert len(bm.resident_pages(Tier.NVM)) >= 1

    def test_single_eviction_is_denied(self):
        bm = make_hymem(
            StorageHierarchy(HierarchyShape(1.0, 4.0, 100.0), SCALE),
            fine_grained=False, mini_pages=False,
        )
        pages = [bm.allocate_page() for _ in range(5)]
        for page in pages:
            bm.read(page)
        # Exactly one eviction so far: its page was denied and queued.
        assert bm.stats.dram_evictions == 1
        assert len(bm.resident_pages(Tier.NVM)) == 0
        assert len(bm.admission_queues[0]) == 1
