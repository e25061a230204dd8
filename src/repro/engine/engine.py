"""The storage engine: buffer manager + index + MVTO + WAL, assembled.

This is the layer the workloads drive.  It follows a steal/no-force
discipline: tuple writes are applied to the buffered page immediately
(uncommitted data may reach lower tiers), with before-images in the log
for undo; commits are made durable by the log manager (NVM log buffer
or group commit), never by flushing pages.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable

from ..core.buffer_manager import BufferManager, BufferManagerConfig
from ..core.policy import MigrationPolicy
from ..faults.crash import CrashController, CrashReport
from ..hardware.cost_model import StorageHierarchy
from ..hardware.specs import Tier
from ..txn.mvto import MvtoStore
from ..txn.transaction import Transaction, TransactionAborted
from ..wal.checkpoint import Checkpointer
from ..wal.log_manager import LogManager
from ..wal.records import LogRecord, LogRecordType
from .table import RecordId, Table


@dataclass
class EngineConfig:
    """Knobs of the storage engine."""

    #: Write operations between checkpoints (dirty DRAM page flushes).
    checkpoint_interval_ops: int = 2000


class StorageEngine:
    """A small transactional key-value engine over the three-tier BM."""

    def __init__(
        self,
        hierarchy: StorageHierarchy,
        policy: MigrationPolicy,
        bm_config: BufferManagerConfig | None = None,
        config: EngineConfig | None = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.config = config or EngineConfig()
        if bm_config is not None and bm_config.fine_grained:
            raise ValueError(
                "the engine needs full-page layouts; use the buffer manager "
                "directly for fine-grained experiments"
            )
        self.bm = BufferManager(hierarchy, policy, bm_config)
        self.mvto = MvtoStore()
        self.log = LogManager(hierarchy)
        # WAL rule: checkpoint flushes and dirty evictions must not
        # persist a page ahead of its log records (steal policy).
        self.bm.wal_guard = self.log.ensure_durable
        self.checkpointer = Checkpointer(
            self.bm, self.log, self.config.checkpoint_interval_ops,
            oldest_active_lsn=self._oldest_active_lsn,
        )
        self.tables: dict[str, Table] = {}
        #: Per-transaction undo chains (records newest-last).
        self._txn_records: dict[int, list[LogRecord]] = {}
        self._txn_records_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Schema
    # ------------------------------------------------------------------
    def create_table(self, name: str, tuple_size: int) -> Table:
        if name in self.tables:
            raise ValueError(f"table {name!r} already exists")
        table = Table(name, tuple_size, self.hierarchy.page_size)
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise KeyError(f"no table named {name!r}") from None

    # ------------------------------------------------------------------
    # Transaction lifecycle
    # ------------------------------------------------------------------
    def begin(self) -> Transaction:
        txn = self.mvto.begin()
        txn.last_lsn = self.log.append(LogRecordType.BEGIN, txn.txn_id).lsn
        with self._txn_records_lock:
            self._txn_records[txn.txn_id] = []
        return txn

    def commit(self, txn: Transaction) -> None:
        self.mvto.commit(txn)
        self.log.commit(txn.txn_id, prev_lsn=txn.last_lsn)
        with self._txn_records_lock:
            self._txn_records.pop(txn.txn_id, None)

    def abort(self, txn: Transaction, reason: str = "user abort") -> None:
        """Roll back: restore before-images newest-first, then finish."""
        with self._txn_records_lock:
            undo_chain = self._txn_records.pop(txn.txn_id, [])
        for record in reversed(undo_chain):
            self._apply_tuple_image(record.page_id, record.slot, record.before)
            self.log.append(
                LogRecordType.CLR,
                txn_id=txn.txn_id,
                page_id=record.page_id,
                slot=record.slot,
                after=record.before,
                undo_next_lsn=record.prev_lsn,
            )
        if txn.is_active:
            self.mvto.abort(txn, reason)
        self.log.append(LogRecordType.ABORT, txn.txn_id, prev_lsn=txn.last_lsn)

    def execute(self, body: Callable[[Transaction], Any],
                max_retries: int = 10) -> Any:
        """Run ``body`` transactionally with abort-and-retry semantics."""
        last_reason = "unknown"
        for _ in range(max_retries):
            txn = self.begin()
            try:
                result = body(txn)
            except TransactionAborted as exc:
                self.abort(txn, exc.reason)
                last_reason = exc.reason
                continue
            except Exception:
                self.abort(txn, "exception in transaction body")
                raise
            self.commit(txn)
            return result
        raise TransactionAborted(-1, f"gave up after {max_retries} retries: {last_reason}")

    # ------------------------------------------------------------------
    # Tuple operations
    # ------------------------------------------------------------------
    def insert(self, txn: Transaction, table_name: str, key: Any,
               value: bytes) -> RecordId:
        table = self.table(table_name)
        self._check_value(table, value)
        if table.lookup(key) is not None:
            raise KeyError(f"duplicate key {key!r} in table {table_name!r}")
        self.mvto.write(txn, table.mvto_key(key), value)
        rid = table.allocate_rid(self.bm.allocate_page)
        self._log_and_apply(txn, LogRecordType.INSERT, rid, before=None, after=value)
        table.index.insert(key, rid)
        self.checkpointer.note_operation(is_write=True)
        return rid

    def read(self, txn: Transaction, table_name: str, key: Any) -> bytes | None:
        table = self.table(table_name)
        rid = table.lookup(key)
        if rid is None:
            return None
        self.hierarchy.charge_cpu(self.hierarchy.cpu_costs.index_ns)
        # Version visibility comes from MVTO; the page access charges the
        # buffer traffic for actually materialising the tuple.
        value = self.mvto.read(txn, table.mvto_key(key))
        self.bm.read(rid.page_id, rid.offset(table.tuple_size), table.tuple_size)
        return value

    def update(self, txn: Transaction, table_name: str, key: Any,
               value: bytes) -> None:
        table = self.table(table_name)
        self._check_value(table, value)
        rid = table.lookup(key)
        if rid is None:
            raise KeyError(f"key {key!r} not found in table {table_name!r}")
        self.hierarchy.charge_cpu(self.hierarchy.cpu_costs.index_ns)
        before = self._peek_tuple(rid)
        self.mvto.write(txn, table.mvto_key(key), value)
        self._log_and_apply(txn, LogRecordType.UPDATE, rid, before=before, after=value)
        self.checkpointer.note_operation(is_write=True)

    def delete(self, txn: Transaction, table_name: str, key: Any) -> bool:
        table = self.table(table_name)
        rid = table.lookup(key)
        if rid is None:
            return False
        before = self._peek_tuple(rid)
        self.mvto.delete(txn, table.mvto_key(key))
        self._log_and_apply(txn, LogRecordType.DELETE, rid, before=before, after=None)
        table.index.delete(key)
        self.checkpointer.note_operation(is_write=True)
        return True

    def scan(self, txn: Transaction, table_name: str, low: Any,
             high: Any) -> list[tuple[Any, bytes]]:
        """Range scan via the index; each hit charges a tuple read."""
        table = self.table(table_name)
        results = []
        for key, rid in table.index.range(low, high):
            value = self.mvto.read(txn, table.mvto_key(key))
            self.bm.read(rid.page_id, rid.offset(table.tuple_size), table.tuple_size)
            if value is not None:
                results.append((key, value))
        return results

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_value(self, table: Table, value: bytes) -> None:
        if len(value) > table.tuple_size:
            raise ValueError(
                f"value of {len(value)} B exceeds tuple size {table.tuple_size} B"
            )

    def _log_and_apply(self, txn: Transaction, record_type: LogRecordType,
                       rid: RecordId, before: bytes | None,
                       after: bytes | None) -> None:
        self.hierarchy.charge_cpu(self.hierarchy.cpu_costs.logging_ns)
        record = self.log.append(
            record_type,
            txn_id=txn.txn_id,
            page_id=rid.page_id,
            slot=rid.slot,
            prev_lsn=txn.last_lsn,
            before=before,
            after=after,
        )
        txn.last_lsn = record.lsn
        with self._txn_records_lock:
            chain = self._txn_records.get(txn.txn_id)
            if chain is not None:
                chain.append(record)
        self._apply_tuple_image(rid.page_id, rid.slot, after, record.lsn)

    def _apply_tuple_image(self, page_id: int, slot: int,
                           image: bytes | None, lsn: int | None = None) -> None:
        """Write a tuple image into the buffered page copy (steal policy)."""
        descriptor = self.bm.fetch_page(page_id, for_write=True)
        try:
            page = descriptor.content
            if image is None:
                page.delete_record(slot)
                if lsn is not None and lsn > page.lsn:
                    page.lsn = lsn
            else:
                page.write_record(slot, image, lsn)
        finally:
            self.bm.release_page(descriptor)

    def _peek_tuple(self, rid: RecordId) -> bytes | None:
        descriptor = self.bm.fetch_page(rid.page_id, for_write=False)
        try:
            return descriptor.content.read_record(rid.slot)
        finally:
            self.bm.release_page(descriptor)

    def _oldest_active_lsn(self) -> int | None:
        """First logged LSN of the oldest in-flight transaction.

        Bounds checkpoint log truncation: an active transaction's
        records must survive (its stolen effects may already be on
        durable pages, and crash-undo needs the before-images).
        """
        with self._txn_records_lock:
            first_lsns = [
                chain[0].lsn
                for chain in self._txn_records.values() if chain
            ]
        return min(first_lsns) if first_lsns else None

    # ------------------------------------------------------------------
    # Crash / recovery integration
    # ------------------------------------------------------------------
    def crash_controller(self, handle=None) -> CrashController:
        """The unified crash semantics for this engine."""
        return CrashController(self, handle=handle)

    def simulate_crash(self) -> CrashReport:
        """Drop all volatile state (DRAM buffer, mapping table, MVTO).

        Thin wrapper over :class:`~repro.faults.crash.CrashController`
        — the single crash implementation shared with the crash-point
        matrix.
        """
        return self.crash_controller().crash()

    def drop_volatile_runtime(self) -> None:
        """Reset engine-level volatile state (MVTO store, undo chains).

        Called by the crash controller after the buffer manager and log
        have dropped their volatile state.
        """
        self.mvto = MvtoStore()
        with self._txn_records_lock:
            self._txn_records.clear()

    def committed_value(self, table_name: str, key: Any) -> bytes | None:
        """Durable value of ``key`` as recovery would see it (tests)."""
        table = self.table(table_name)
        rid = table.lookup(key)
        if rid is None:
            return None
        shared = self.bm.table.get(rid.page_id)
        if shared is not None:
            nvm_desc = shared.copy_on(Tier.NVM)
            if nvm_desc is not None:
                return nvm_desc.content.read_record(rid.slot)
        durable = self.bm.store.peek(rid.page_id)
        if durable is None:
            return None
        return durable.read_record(rid.slot)
