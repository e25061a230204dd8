"""Checkpointing: bounding recovery time and enabling log truncation.

§5.2: "In the background, SPITFIRE periodically flushes dirty pages in
the DRAM buffer to allow log truncation and to bound recovery time.
However, the modified pages in NVM buffer are not flushed down to SSD
since NVM is persistent."

The checkpointer here is driven explicitly (the workload runner calls
:meth:`Checkpointer.maybe_checkpoint` every operation) rather than by a
wall-clock timer, which keeps simulations deterministic.
"""

from __future__ import annotations

from ..core.buffer_manager import BufferManager
from .log_manager import LogManager
from .records import LogRecordType


class Checkpointer:
    """Periodic dirty-DRAM-page flusher + checkpoint record writer."""

    def __init__(
        self,
        buffer_manager: BufferManager,
        log_manager: LogManager,
        interval_ops: int = 2000,
        oldest_active_lsn=None,
    ) -> None:
        if interval_ops <= 0:
            raise ValueError("interval_ops must be positive")
        self.bm = buffer_manager
        self.log = log_manager
        self.interval_ops = interval_ops
        #: Optional callable returning the first LSN of the oldest
        #: still-active transaction (or ``None`` when no transaction is
        #: in flight).  Truncation must not discard an active
        #: transaction's records: its uncommitted effects may already
        #: sit on durable pages (steal), and undoing them after a crash
        #: needs the before-images.
        self.oldest_active_lsn = oldest_active_lsn
        #: ``(begin_lsn, end_lsn)`` of every completed checkpoint.
        self.checkpoints: list[tuple[int, int]] = []
        self._ops_since = 0
        self.pages_flushed = 0
        self.checkpoints_taken = 0

    def note_operation(self, is_write: bool) -> bool:
        """Count one workload operation; checkpoint when the interval hits.

        Only write operations advance the counter — a read-only workload
        generates (almost) no dirty pages to flush, matching the paper's
        observation that even YCSB-RO sees occasional metadata flushes.
        """
        if not is_write:
            return False
        self._ops_since += 1
        if self._ops_since < self.interval_ops:
            return False
        self._ops_since = 0
        self.checkpoint()
        return True

    def checkpoint(self) -> int:
        """Flush dirty DRAM pages; NVM pages stay put (they are durable)."""
        begin_lsn = self.log.append(LogRecordType.CHECKPOINT_BEGIN, txn_id=0).lsn
        flushed = self.bm.flush_dirty_dram()
        self.pages_flushed += flushed
        end_lsn = self.log.append(LogRecordType.CHECKPOINT_END, txn_id=0).lsn
        self.log.flush()
        # Records before the checkpoint begin are no longer needed for
        # redo: every page they touched is durable.  Undo is the other
        # constraint — keep everything from the oldest active
        # transaction's first record.
        cutoff = begin_lsn
        if self.oldest_active_lsn is not None:
            oldest = self.oldest_active_lsn()
            if oldest is not None:
                cutoff = min(cutoff, oldest)
        self.log.truncate_before(cutoff)
        self.checkpoints.append((begin_lsn, end_lsn))
        self.checkpoints_taken += 1
        return flushed
