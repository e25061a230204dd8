"""Crash recovery: analysis/redo/undo plus NVM buffer reconstruction."""

from conftest import make_bm

from repro.core.policy import DRAM_SSD_POLICY, SPITFIRE_EAGER, MigrationPolicy
from repro.hardware.specs import Tier
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecordType
from repro.wal.recovery import RecoveryManager


def setup_bm(policy=SPITFIRE_EAGER, nvm_gb=4.0):
    bm = make_bm(policy=policy, nvm_gb=nvm_gb)
    # group_commit_size=1 makes every commit durable immediately even on
    # the DRAM-SSD hierarchy, so recovery scenarios are deterministic.
    log = LogManager(bm.hierarchy, group_commit_size=1)
    return bm, log, RecoveryManager(bm, log)


def committed_update(bm, log, txn_id, page_id, slot, value, before=None):
    log.append(LogRecordType.BEGIN, txn_id=txn_id)
    record = log.append(
        LogRecordType.UPDATE, txn_id=txn_id, page_id=page_id, slot=slot,
        before=before, after=value,
    )
    descriptor = bm.fetch_page(page_id, for_write=True)
    descriptor.content.write_record(slot, value, lsn=record.lsn)
    bm.release_page(descriptor)
    log.commit(txn_id=txn_id)
    return record


class TestAnalysis:
    def test_classifies_winners_and_losers(self):
        bm, log, recovery = setup_bm()
        page = bm.allocate_page()
        committed_update(bm, log, txn_id=1, page_id=page, slot=0, value=b"won")
        log.append(LogRecordType.BEGIN, txn_id=2)
        log.append(LogRecordType.UPDATE, txn_id=2, page_id=page, slot=1,
                   before=None, after=b"lost")
        bm.simulate_crash()
        report = recovery.recover()
        assert 1 in report.winners
        assert 2 in report.losers

    def test_aborted_txn_is_not_a_loser(self):
        bm, log, recovery = setup_bm()
        log.append(LogRecordType.BEGIN, txn_id=3)
        log.append(LogRecordType.ABORT, txn_id=3)
        bm.simulate_crash()
        report = recovery.recover()
        assert 3 not in report.losers
        assert 3 not in report.winners


class TestRedo:
    def test_redo_applies_lost_committed_update(self):
        """A committed update living only in DRAM is redone after a crash."""
        bm, log, recovery = setup_bm(policy=DRAM_SSD_POLICY, nvm_gb=0.0)
        page = bm.allocate_page()
        committed_update(bm, log, txn_id=1, page_id=page, slot=0, value=b"v1")
        # The update is in the (volatile) DRAM buffer only.
        assert bm.store.peek(page).read_record(0) is None
        bm.simulate_crash()
        report = recovery.recover()
        assert report.redo_applied == 1
        assert bm.store.peek(page).read_record(0) == b"v1"

    def test_redo_is_idempotent_via_lsn(self):
        """Pages already carrying the update (by LSN) are skipped."""
        bm, log, recovery = setup_bm(policy=DRAM_SSD_POLICY, nvm_gb=0.0)
        page = bm.allocate_page()
        committed_update(bm, log, txn_id=1, page_id=page, slot=0, value=b"v1")
        bm.flush_dirty_dram()  # durable now, with its LSN
        bm.simulate_crash()
        report = recovery.recover()
        assert report.redo_applied == 0
        assert report.redo_skipped == 1

    def test_nvm_copy_is_preferred_over_ssd(self):
        """§5.2: recovery reads the newest durable copy — the NVM one."""
        nvm_pinned = MigrationPolicy(0.0, 0.0, 1.0, 1.0)
        bm, log, recovery = setup_bm(policy=nvm_pinned)
        page = bm.allocate_page()
        bm.read(page)  # install on NVM
        # Write the record straight into the NVM copy (persistent!).
        record = log.append(LogRecordType.UPDATE, txn_id=1, page_id=page,
                            slot=0, after=b"nvm-version")
        log.append(LogRecordType.BEGIN, txn_id=1)
        nvm_desc = bm.table.get(page).copy_on(Tier.NVM)
        nvm_desc.content.write_record(0, b"nvm-version", lsn=record.lsn)
        log.commit(txn_id=1)
        bm.simulate_crash()
        report = recovery.recover()
        assert report.recovered_nvm_pages >= 1
        # No redo needed: the NVM copy already carries the record.
        shared = bm.table.get(page)
        assert shared.copy_on(Tier.NVM).content.read_record(0) == b"nvm-version"


class TestUndo:
    def test_loser_update_rolled_back(self):
        bm, log, recovery = setup_bm(policy=DRAM_SSD_POLICY, nvm_gb=0.0)
        page = bm.allocate_page()
        committed_update(bm, log, txn_id=1, page_id=page, slot=0, value=b"base")
        bm.flush_dirty_dram()
        # Loser overwrites the slot and its page reaches SSD (steal).
        log.append(LogRecordType.BEGIN, txn_id=2)
        record = log.append(LogRecordType.UPDATE, txn_id=2, page_id=page,
                            slot=0, before=b"base", after=b"dirty")
        descriptor = bm.fetch_page(page, for_write=True)
        descriptor.content.write_record(0, b"dirty", lsn=record.lsn)
        bm.release_page(descriptor)
        bm.flush_dirty_dram()  # uncommitted data now durable
        log.flush()  # WAL rule: records are forced before the steal
        bm.simulate_crash()
        report = recovery.recover()
        assert report.undo_applied == 1
        assert report.clrs_written == 1
        assert bm.store.peek(page).read_record(0) == b"base"

    def test_loser_insert_removed(self):
        bm, log, recovery = setup_bm(policy=DRAM_SSD_POLICY, nvm_gb=0.0)
        page = bm.allocate_page()
        log.append(LogRecordType.BEGIN, txn_id=2)
        record = log.append(LogRecordType.INSERT, txn_id=2, page_id=page,
                            slot=5, before=None, after=b"ghost")
        descriptor = bm.fetch_page(page, for_write=True)
        descriptor.content.write_record(5, b"ghost", lsn=record.lsn)
        bm.release_page(descriptor)
        bm.flush_dirty_dram()
        log.flush()
        bm.simulate_crash()
        recovery.recover()
        assert bm.store.peek(page).read_record(5) is None

    def test_losers_closed_with_abort_records(self):
        bm, log, recovery = setup_bm(policy=DRAM_SSD_POLICY, nvm_gb=0.0)
        page = bm.allocate_page()
        log.append(LogRecordType.BEGIN, txn_id=9)
        log.append(LogRecordType.UPDATE, txn_id=9, page_id=page, slot=0,
                   before=None, after=b"x")
        log.flush()
        bm.simulate_crash()
        recovery.recover()
        types = [r.record_type for r in log.records_for_txn(9)]
        assert LogRecordType.ABORT in types

    def test_undo_is_newest_first(self):
        bm, log, recovery = setup_bm(policy=DRAM_SSD_POLICY, nvm_gb=0.0)
        page = bm.allocate_page()
        log.append(LogRecordType.BEGIN, txn_id=2)
        log.append(LogRecordType.UPDATE, txn_id=2, page_id=page, slot=0,
                   before=None, after=b"a")
        r2 = log.append(LogRecordType.UPDATE, txn_id=2, page_id=page, slot=0,
                        before=b"a", after=b"b")
        descriptor = bm.fetch_page(page, for_write=True)
        descriptor.content.write_record(0, b"b", lsn=r2.lsn)
        bm.release_page(descriptor)
        bm.flush_dirty_dram()
        log.flush()
        bm.simulate_crash()
        recovery.recover()
        # b -> a (undo r2), then a -> gone (undo r1).
        assert bm.store.peek(page).read_record(0) is None


class TestEndToEnd:
    def test_full_cycle_mixed_winners_losers(self):
        bm, log, recovery = setup_bm(policy=DRAM_SSD_POLICY, nvm_gb=0.0)
        pages = [bm.allocate_page() for _ in range(3)]
        committed_update(bm, log, 1, pages[0], 0, b"alpha")
        committed_update(bm, log, 2, pages[1], 0, b"beta")
        log.append(LogRecordType.BEGIN, txn_id=3)
        log.append(LogRecordType.UPDATE, txn_id=3, page_id=pages[2], slot=0,
                   before=None, after=b"gamma")
        log.flush()
        bm.simulate_crash()
        report = recovery.recover()
        assert report.winners == {1, 2}
        assert report.losers == {3}
        assert bm.store.peek(pages[0]).read_record(0) == b"alpha"
        assert bm.store.peek(pages[1]).read_record(0) == b"beta"
        assert bm.store.peek(pages[2]).read_record(0) is None
