"""Checkpointing: periodic dirty-DRAM flushes and log truncation."""

import pytest

from conftest import make_bm

from repro.core.policy import DRAM_SSD_POLICY
from repro.hardware.specs import Tier
from repro.wal.checkpoint import Checkpointer
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecordType


def make_checkpointer(interval=5, policy=DRAM_SSD_POLICY, nvm_gb=0.0):
    bm = make_bm(nvm_gb=nvm_gb, policy=policy)
    log = LogManager(bm.hierarchy)
    return bm, log, Checkpointer(bm, log, interval_ops=interval)


class TestTriggering:
    def test_reads_do_not_trigger(self):
        bm, _, checkpointer = make_checkpointer(interval=2)
        assert not checkpointer.note_operation(is_write=False)
        assert not checkpointer.note_operation(is_write=False)
        assert checkpointer.checkpoints_taken == 0

    def test_writes_trigger_at_interval(self):
        bm, _, checkpointer = make_checkpointer(interval=3)
        page = bm.allocate_page()
        bm.write(page, 0, 64)
        assert not checkpointer.note_operation(is_write=True)
        assert not checkpointer.note_operation(is_write=True)
        assert checkpointer.note_operation(is_write=True)
        assert checkpointer.checkpoints_taken == 1

    def test_counter_resets_after_checkpoint(self):
        bm, _, checkpointer = make_checkpointer(interval=2)
        for _ in range(4):
            checkpointer.note_operation(is_write=True)
        assert checkpointer.checkpoints_taken == 2

    def test_invalid_interval(self):
        bm, log, _ = make_checkpointer()
        with pytest.raises(ValueError):
            Checkpointer(bm, log, interval_ops=0)


class TestCheckpointEffects:
    def test_flushes_dirty_pages(self):
        bm, _, checkpointer = make_checkpointer()
        pages = [bm.allocate_page() for _ in range(3)]
        for page in pages:
            bm.write(page, 0, 64)
        flushed = checkpointer.checkpoint()
        assert flushed == 3
        assert checkpointer.pages_flushed == 3
        for page in pages:
            descriptor = bm.table.get(page).copy_on(Tier.DRAM)
            assert descriptor is None or not descriptor.dirty

    def test_writes_begin_end_records(self):
        bm, log, checkpointer = make_checkpointer()
        checkpointer.checkpoint()
        types = [r.record_type for r in log.recovered_records()]
        assert LogRecordType.CHECKPOINT_BEGIN in types
        assert LogRecordType.CHECKPOINT_END in types
        begin_lsn, end_lsn = checkpointer.checkpoints[-1]
        assert 0 < begin_lsn < end_lsn

    def test_truncates_log(self):
        bm, log, checkpointer = make_checkpointer()
        log.append(LogRecordType.BEGIN, txn_id=1)
        log.commit(txn_id=1)
        log.flush()
        checkpointer.checkpoint()
        remaining = log.recovered_records()
        assert all(
            r.record_type in (LogRecordType.CHECKPOINT_BEGIN,
                              LogRecordType.CHECKPOINT_END)
            for r in remaining
        )

    def test_nvm_dirty_pages_not_flushed(self):
        """§5.2: modified NVM pages are persistent; checkpoints skip them."""
        from repro.core.policy import MigrationPolicy

        nvm_pinned = MigrationPolicy(0.0, 0.0, 1.0, 1.0)
        bm = make_bm(policy=nvm_pinned)
        log = LogManager(bm.hierarchy)
        checkpointer = Checkpointer(bm, log, interval_ops=5)
        page = bm.allocate_page()
        bm.write(page, 0, 64)  # dirty on NVM
        assert checkpointer.checkpoint() == 0
        assert bm.table.get(page).copy_on(Tier.NVM).dirty  # still dirty, still durable
