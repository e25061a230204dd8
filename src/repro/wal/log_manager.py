"""NVM-aware write-ahead logging (§5.2).

With an NVM tier, log records are first persisted in a shared *NVM log
buffer* — a transaction is durably committed as soon as its commit
record lands there (one small NVM write + persistence barrier instead
of a blocking SSD write).  When the NVM log buffer exceeds a threshold,
its contents are asynchronously appended to the on-SSD log file and the
buffer is recycled.

Without NVM (a DRAM-SSD hierarchy), the manager falls back to classic
*group commit* (§3.2): commit records accumulate in a DRAM batch and
become durable only when the group is flushed to SSD with one
sequential write.  The difference in commit latency and in SSD traffic
between these two modes is exactly the recovery-protocol overhead the
paper's write-heavy experiments surface.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass

from ..core.devio import write_with_retry
from ..faults.plan import DeviceIOError
from ..hardware.cost_model import StorageHierarchy
from ..hardware.specs import Tier
from .records import LogRecord, LogRecordType, record_checksum, record_size


@dataclass
class LogStats:
    """Traffic counters for the log subsystem."""

    records_appended: int = 0
    bytes_appended: int = 0
    nvm_buffer_drains: int = 0
    group_commits: int = 0
    forced_flushes: int = 0
    #: Group flushes forced by the WAL rule: a page carrying an LSN was
    #: about to reach durable media ahead of its log records.
    wal_guard_flushes: int = 0
    #: Records dropped by the recovery scan because their checksum did
    #: not verify (torn/corrupt tail truncation).
    torn_records_dropped: int = 0


class LogManager:
    """Durable, totally ordered log over the simulated hierarchy.

    Parameters
    ----------
    hierarchy:
        Provides the NVM/SSD devices and cost accounting.
    nvm_buffer_bytes:
        Drain threshold of the NVM log buffer.
    group_commit_size:
        Commit records per group when running without NVM.
    """

    def __init__(
        self,
        hierarchy: StorageHierarchy,
        nvm_buffer_bytes: int = 1 << 20,
        group_commit_size: int = 32,
    ) -> None:
        self.hierarchy = hierarchy
        self.nvm_buffer_bytes = nvm_buffer_bytes
        self.group_commit_size = group_commit_size
        self.stats = LogStats()
        #: The NVM log-buffer device (``None``: group commit instead)
        #: and the device the group-commit batch is staged on (``None``
        #: for a DRAM-less hierarchy).  Resolved once — a log sees the
        #: devices its hierarchy has when it is built, which is
        #: ``inject_faults``' wrap-before-construct contract.
        self._nvm = (
            None if hierarchy.memory_mode else hierarchy.devices.get(Tier.NVM)
        )
        self._dram = hierarchy.devices.get(Tier.DRAM)
        self._lock = threading.Lock()
        self._next_lsn = 1
        #: Records already durable (on NVM or flushed to SSD).
        self._durable: list[LogRecord] = []
        #: Records currently sitting in the NVM log buffer (durable, but
        #: not yet appended to the SSD log file).
        self._nvm_buffer: list[LogRecord] = []
        self._nvm_buffer_used = 0
        #: Volatile group-commit batch (DRAM-SSD mode only).
        self._pending_group: list[LogRecord] = []
        self._pending_bytes = 0
        self._pending_commits = 0
        #: Observer called (inside the append lock) with each record
        #: just after it is staged/persisted.  Used by the crash-point
        #: enumerator to mark WAL-append boundaries; must not re-enter
        #: the log manager.
        self.on_append = None
        #: Observer called with the number of records the recovery scan
        #: truncated because their checksum failed to verify.
        self.on_torn = None

    # ------------------------------------------------------------------
    @property
    def uses_nvm(self) -> bool:
        return self._nvm is not None

    @property
    def next_lsn(self) -> int:
        with self._lock:
            return self._next_lsn

    @property
    def durable_lsn(self) -> int:
        """Highest LSN guaranteed to survive a crash."""
        with self._lock:
            if self.uses_nvm:
                last = self._nvm_buffer[-1] if self._nvm_buffer else None
                if last is None and self._durable:
                    last = self._durable[-1]
            else:
                last = self._durable[-1] if self._durable else None
            return last.lsn if last else 0

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, record_type: LogRecordType, txn_id: int, page_id: int = -1,
               slot: int = -1, prev_lsn: int = -1, before: bytes | None = None,
               after: bytes | None = None, undo_next_lsn: int = -1) -> LogRecord:
        """Build and append one record; returns it (with its LSN)."""
        size = record_size(before, after)
        with self._lock:
            lsn = self._next_lsn
            record = LogRecord(
                lsn, record_type, txn_id, page_id, slot, prev_lsn, before,
                after, undo_next_lsn,
                record_checksum(
                    lsn, record_type, txn_id, page_id, slot, prev_lsn,
                    before, after, undo_next_lsn,
                ),
            )
            self._next_lsn = lsn + 1
            stats = self.stats
            stats.records_appended += 1
            stats.bytes_appended += size
            device = self._nvm
            if device is not None:
                # Persist the record in the NVM log buffer (§3.2's
                # direct path): one small sequential write + barrier.
                try:
                    device.write(size, True)
                except DeviceIOError as exc:
                    write_with_retry(device, size, True, failed=exc)
                device.persist_barrier()
                self._nvm_buffer.append(record)
                self._nvm_buffer_used += size
                if self._nvm_buffer_used >= self.nvm_buffer_bytes:
                    self._drain_nvm_buffer()
            else:
                self._append_grouped(record, size)
            if self.on_append is not None:
                self.on_append(record)
            return record

    def _drain_nvm_buffer(self) -> None:
        """Asynchronously append the NVM buffer to the SSD log file."""
        if not self._nvm_buffer:
            return
        ssd = self.hierarchy.device(Tier.SSD)
        write_with_retry(ssd, self._nvm_buffer_used, sequential=True)
        self._durable.extend(self._nvm_buffer)
        self._nvm_buffer.clear()
        self._nvm_buffer_used = 0
        self.stats.nvm_buffer_drains += 1

    def _append_grouped(self, record: LogRecord, size: int) -> None:
        """Stage the record in the volatile DRAM group-commit batch."""
        if self._dram is not None:
            write_with_retry(self._dram, size)
        self._pending_group.append(record)
        self._pending_bytes += size
        if record.record_type is LogRecordType.COMMIT:
            self._pending_commits += 1

    # ------------------------------------------------------------------
    # Commit durability
    # ------------------------------------------------------------------
    def commit(self, txn_id: int, prev_lsn: int = -1) -> LogRecord:
        """Append a commit record and make it durable.

        With NVM the commit is durable the moment the record is persisted
        in the NVM buffer.  Without NVM, the commit joins the group; the
        group is flushed once it reaches ``group_commit_size`` commits
        (amortising one SSD write over the group, §3.2).
        """
        record = self.append(LogRecordType.COMMIT, txn_id, -1, -1, prev_lsn)
        if self._nvm is None:
            with self._lock:
                if self._pending_commits >= self.group_commit_size:
                    self._flush_group()
        return record

    def _flush_group(self) -> None:
        if not self._pending_group:
            return
        ssd = self.hierarchy.device(Tier.SSD)
        write_with_retry(ssd, self._pending_bytes, sequential=True)
        self._durable.extend(self._pending_group)
        self._pending_group.clear()
        self._pending_bytes = 0
        self._pending_commits = 0
        self.stats.group_commits += 1

    def flush(self) -> None:
        """Force everything volatile or NVM-buffered onto the SSD log."""
        with self._lock:
            self.stats.forced_flushes += 1
            if self.uses_nvm:
                self._drain_nvm_buffer()
            else:
                self._flush_group()

    def ensure_durable(self, lsn: int) -> None:
        """The WAL rule (log-before-data): make the log durable through
        ``lsn`` before a page carrying that LSN reaches durable media.

        NVM-backed logs persist every record at append time, so this
        only ever flushes the volatile DRAM group-commit batch — and
        only when the batch actually holds records at or below ``lsn``
        (a checkpoint or eviction stealing a page dirtied by an
        in-flight transaction).  Without the barrier such a page would
        carry effects the post-crash log cannot redo *or* undo.
        """
        if lsn <= 0:
            return
        with self._lock:
            if self.uses_nvm or not self._pending_group:
                return
            if self._durable and self._durable[-1].lsn >= lsn:
                return
            self.stats.wal_guard_flushes += 1
            self._flush_group()

    # ------------------------------------------------------------------
    # Crash / recovery support
    # ------------------------------------------------------------------
    def simulate_crash(self) -> int:
        """Drop volatile log state; return the number of records lost.

        The NVM log buffer survives (it is persistent); the DRAM
        group-commit batch does not — transactions whose commit record
        was only in the batch lose durability, which is precisely the
        window group commit trades for throughput.
        """
        with self._lock:
            lost = len(self._pending_group)
            self._pending_group.clear()
            self._pending_bytes = 0
            self._pending_commits = 0
            return lost

    def _durable_tail(self) -> tuple[list[LogRecord], int] | None:
        """The durable list holding the tail record, and its index.

        With NVM, the most recent durable record sits at the end of the
        NVM log buffer (if non-empty); otherwise at the end of the SSD
        log.  Returns ``None`` when nothing durable exists yet.
        """
        if self.uses_nvm and self._nvm_buffer:
            return self._nvm_buffer, len(self._nvm_buffer) - 1
        if self._durable:
            return self._durable, len(self._durable) - 1
        return None

    def corrupt_tail(self) -> LogRecord | None:
        """Tear the most recent durable record (crash-coupled hazard).

        Models a torn write: the record is still present on media but
        only a prefix of its chunks persisted, so its stored checksum no
        longer matches its payload.  Returns the (now corrupt) record,
        or ``None`` if nothing durable exists.
        """
        with self._lock:
            tail = self._durable_tail()
            if tail is None:
                return None
            store, index = tail
            record = store[index]
            bad = (record.compute_checksum() ^ 0xA5A5A5A5) or 1
            corrupt = dataclasses.replace(record, checksum=bad)
            store[index] = corrupt
            return corrupt

    def drop_tail(self) -> LogRecord | None:
        """Erase the most recent durable record (dropped persist).

        Models a write acknowledged to the caller that never reached
        durable media before power failed.  Returns the dropped record,
        or ``None`` if nothing durable exists.
        """
        with self._lock:
            tail = self._durable_tail()
            if tail is None:
                return None
            store, index = tail
            record = store.pop(index)
            if store is self._nvm_buffer:
                self._nvm_buffer_used -= record.size_bytes()
            return record

    def _verify_scan(self) -> None:
        """Truncate ``_durable`` from the first checksum failure on.

        Must be called with the lock held and the NVM buffer already
        drained.  A torn record invalidates everything after it — with
        a corrupt record in the middle of the log the tail cannot be
        trusted, exactly like a real sequential log scan.
        """
        for index, record in enumerate(self._durable):
            if not record.verify():
                dropped = len(self._durable) - index
                del self._durable[index:]
                self.stats.torn_records_dropped += dropped
                if self.on_torn is not None:
                    self.on_torn(dropped)
                break

    def recovered_records(self) -> list[LogRecord]:
        """All *valid* records a recovery run can see, in LSN order.

        Per §5.2, recovery first appends the (persistent) NVM log buffer
        to the log file; this accessor performs that step.  The scan then
        verifies each record's checksum and truncates the log at the
        first failure — a torn tail shortens the log instead of feeding
        garbage to the recovery manager.
        """
        with self._lock:
            if self.uses_nvm:
                self._drain_nvm_buffer()
            self._verify_scan()
            return list(self._durable)

    def verified_durable_lsn(self) -> int:
        """Highest LSN that is durable *and* passes checksum verification."""
        records = self.recovered_records()
        return records[-1].lsn if records else 0

    def records_for_txn(self, txn_id: int) -> list[LogRecord]:
        return [r for r in self.recovered_records() if r.txn_id == txn_id]

    def truncate_before(self, lsn: int) -> int:
        """Discard durable records with LSN < ``lsn`` (post-checkpoint)."""
        with self._lock:
            kept = [r for r in self._durable if r.lsn >= lsn]
            dropped = len(self._durable) - len(kept)
            self._durable = kept
            return dropped
