"""FlushEngine: checkpoint flushing, write-back, crash/recovery (§5.2)."""

from conftest import EventRecorder, make_core

from repro.core.buffer_manager import BufferManagerConfig
from repro.core.events import EventType
from repro.core.flush_engine import FlushEngine
from repro.core.policy import SPITFIRE_EAGER, MigrationPolicy
from repro.hardware.specs import Tier


def dirty_page(core):
    page = core.store.allocate().page_id
    core.access.access(page, 0, 64, is_write=True)
    return page


class TestIndependentConstruction:
    def test_flush_engine_builds_without_facade(self):
        core = make_core()
        assert isinstance(core.flush, FlushEngine)
        assert core.flush.flush_dirty_dram() == 0  # nothing dirty yet

    def test_flush_clears_dirty_bit(self):
        core = make_core()
        page = dirty_page(core)
        assert core.table.get(page).copy_on(Tier.DRAM).dirty
        assert core.flush.flush_dirty_dram() == 1
        assert not core.table.get(page).copy_on(Tier.DRAM).dirty

    def test_flush_limit_bounds_the_batch(self):
        core = make_core()
        for _ in range(3):
            dirty_page(core)
        assert core.flush.flush_dirty_dram(limit=1) == 1
        assert core.flush.flush_dirty_dram() == 2


class TestFlushDestinations:
    def test_live_nvm_copy_is_refreshed_not_ssd_written(self):
        # Eager fetches leave an NVM copy behind, so the flush refreshes
        # it with one NVM page write instead of paying the SSD path.
        core = make_core(policy=SPITFIRE_EAGER)
        page = dirty_page(core)
        ssd = core.hierarchy.device(Tier.SSD)
        writes_before = ssd.snapshot_counters().write_bytes
        assert core.flush.flush_dirty_dram() == 1
        assert ssd.snapshot_counters().write_bytes == writes_before
        nvm_desc = core.table.get(page).copy_on(Tier.NVM)
        assert nvm_desc is not None and nvm_desc.dirty

    def test_flush_admission_installs_into_nvm(self):
        # N_r=0: the fetch bypassed NVM, so no copy exists there.  N_w=1:
        # the flush is a downward write migration and admits into NVM
        # (§3.4's path 5 applied to checkpoints) instead of writing SSD.
        core = make_core(policy=MigrationPolicy(1.0, 1.0, 0.0, 1.0))
        events = core.events.subscribe(EventRecorder()).events
        page = dirty_page(core)
        assert core.table.get(page).copy_on(Tier.NVM) is None
        assert core.flush.flush_admits_to_nvm(page)
        assert core.flush.flush_dirty_dram() == 1
        nvm_desc = core.table.get(page).copy_on(Tier.NVM)
        assert nvm_desc is not None and nvm_desc.dirty
        kinds = [e.type for e in events]
        assert EventType.MIGRATE_DOWN in kinds and EventType.FLUSH in kinds

    def test_flush_falls_back_to_ssd_without_admission(self):
        # N_w=0 and no NVM copy: the flush pays the SSD write.
        core = make_core(policy=MigrationPolicy(1.0, 1.0, 0.0, 0.0))
        page = dirty_page(core)
        ssd = core.hierarchy.device(Tier.SSD)
        writes_before = ssd.snapshot_counters().write_bytes
        assert not core.flush.flush_admits_to_nvm(page)
        assert core.flush.flush_dirty_dram() == 1
        assert ssd.snapshot_counters().write_bytes > writes_before
        assert core.table.get(page).copy_on(Tier.NVM) is None

    def test_flush_all_drains_dirty_nvm_pages(self):
        # D=0 serves writes directly on the NVM copy; flush_all is the
        # shutdown path that pushes those down to SSD too.
        core = make_core(policy=MigrationPolicy(0.0, 0.0, 1.0, 1.0))
        page = dirty_page(core)
        nvm_desc = core.table.get(page).copy_on(Tier.NVM)
        assert nvm_desc.dirty
        ssd = core.hierarchy.device(Tier.SSD)
        writes_before = ssd.snapshot_counters().write_bytes
        assert core.flush.flush_all() >= 1
        assert not nvm_desc.dirty
        assert ssd.snapshot_counters().write_bytes > writes_before


class TestPartialLayoutWriteback:
    def test_dirty_lines_persist_into_nvm_backing(self):
        config = BufferManagerConfig(fine_grained=True)
        core = make_core(policy=SPITFIRE_EAGER, config=config)
        page = dirty_page(core)
        dram_desc = core.table.get(page).copy_on(Tier.DRAM)
        assert dram_desc.dirty and dram_desc.content.dirty_count > 0
        shared = core.table.get(page)
        core.flush.writeback_lines_to_nvm(shared, dram_desc)
        assert not dram_desc.dirty
        assert dram_desc.content.dirty_count == 0
        # The backing NVM copy absorbed the lines and is dirty now.
        assert core.table.get(page).copy_on(Tier.NVM).dirty

    def test_checkpoint_flush_uses_line_writeback(self):
        config = BufferManagerConfig(fine_grained=True)
        core = make_core(policy=SPITFIRE_EAGER, config=config)
        page = dirty_page(core)
        assert core.flush.flush_dirty_dram() == 1
        dram_desc = core.table.get(page).copy_on(Tier.DRAM)
        assert not dram_desc.dirty and dram_desc.content.dirty_count == 0


class TestCrashRecovery:
    def test_crash_drops_volatile_state_only(self):
        core = make_core(policy=SPITFIRE_EAGER)
        pages = [core.store.allocate().page_id for _ in range(3)]
        for page in pages:
            core.access.access(page, 0, 64, is_write=False)
        assert len(core.chain.node(Tier.DRAM).pool) == 3
        nvm_resident = len(core.chain.node(Tier.NVM).pool)
        assert nvm_resident == 3  # eager copies persist in NVM
        core.flush.simulate_crash()
        assert len(core.chain.node(Tier.DRAM).pool) == 0
        assert len(core.chain.node(Tier.NVM).pool) == nvm_resident
        assert all(core.table.get(p) is None for p in pages)

    def test_recovery_rebuilds_table_from_persistent_buffers(self):
        core = make_core(policy=SPITFIRE_EAGER)
        pages = [core.store.allocate().page_id for _ in range(3)]
        for page in pages:
            core.access.access(page, 0, 64, is_write=False)
        core.flush.simulate_crash()
        assert core.flush.recover_mapping_table() == 3
        for page in pages:
            shared = core.table.get(page)
            assert shared is not None
            assert shared.copy_on(Tier.NVM) is not None
        # The recovered pages serve again, warm from NVM.
        result = core.access.access(pages[0], 0, 64, is_write=False)
        assert result.hit
