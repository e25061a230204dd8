"""Write-ahead log records.

A log record carries the fields §5.2 lists: transaction and page
identifiers, record type, the LSN of the transaction's previous record,
and before/after images.  Sizes are estimated so the simulated devices
can be charged realistically for log traffic.
"""

from __future__ import annotations

import dataclasses
import enum
import zlib
from dataclasses import dataclass

#: Fixed header: lsn + txn id + page id + type + prev_lsn + checksum.
LOG_RECORD_HEADER_BYTES = 48


class LogRecordType(enum.Enum):
    BEGIN = "begin"
    UPDATE = "update"
    INSERT = "insert"
    DELETE = "delete"
    COMMIT = "commit"
    ABORT = "abort"
    #: Compensation record written while undoing a loser.
    CLR = "clr"
    CHECKPOINT_BEGIN = "checkpoint_begin"
    CHECKPOINT_END = "checkpoint_end"


def record_checksum(lsn: int, record_type: LogRecordType, txn_id: int,
                    page_id: int, slot: int, prev_lsn: int,
                    before: bytes | None, after: bytes | None,
                    undo_next_lsn: int) -> int:
    """CRC32 over a canonical encoding of a record's payload fields.

    Takes the fields, not a record, so the append path can checksum
    first and construct the frozen :class:`LogRecord` once.
    """
    header = (
        f"{lsn}|{record_type.value}|{txn_id}|{page_id}|{slot}|{prev_lsn}|"
        f"{undo_next_lsn}|"
    ).encode("ascii")
    crc = zlib.crc32(header)
    # Length-prefix each image so (b"ab", b"") and (b"a", b"b")
    # cannot collide, and None stays distinct from b"".
    for image in (before, after):
        if image is None:
            crc = zlib.crc32(b"-", crc)
        else:
            crc = zlib.crc32(f"{len(image)}:".encode("ascii"), crc)
            crc = zlib.crc32(image, crc)
    return crc & 0xFFFFFFFF


@dataclass(frozen=True)
class LogRecord:
    """One immutable WAL entry."""

    lsn: int
    record_type: LogRecordType
    txn_id: int
    page_id: int = -1
    slot: int = -1
    prev_lsn: int = -1
    before: bytes | None = None
    after: bytes | None = None
    #: For CLRs: the next record of this txn still to be undone.
    undo_next_lsn: int = -1
    #: CRC32 over the payload fields (:func:`record_checksum`); 0 means
    #: "not checksummed" (a record built directly — legacy/test paths).
    checksum: int = 0

    # ------------------------------------------------------------------
    # Checksumming — the header field reserved above is now live.
    # ------------------------------------------------------------------
    def compute_checksum(self) -> int:
        """CRC32 over a canonical encoding of every payload field."""
        return record_checksum(
            self.lsn, self.record_type, self.txn_id, self.page_id, self.slot,
            self.prev_lsn, self.before, self.after, self.undo_next_lsn,
        )

    def with_checksum(self) -> "LogRecord":
        """A copy of this record carrying its computed checksum."""
        return dataclasses.replace(self, checksum=self.compute_checksum())

    def verify(self) -> bool:
        """True when the stored checksum matches the payload.

        A zero checksum marks a record that was never checksummed (the
        durable append path always checksums; only directly-constructed
        records skip it) and is accepted.
        """
        if self.checksum == 0:
            return True
        return self.checksum == self.compute_checksum()

    def size_bytes(self) -> int:
        size = LOG_RECORD_HEADER_BYTES
        if self.before is not None:
            size += len(self.before)
        if self.after is not None:
            size += len(self.after)
        return size

    @property
    def is_redoable(self) -> bool:
        return self.record_type in (
            LogRecordType.UPDATE,
            LogRecordType.INSERT,
            LogRecordType.DELETE,
            LogRecordType.CLR,
        )

    @property
    def is_undoable(self) -> bool:
        return self.record_type in (
            LogRecordType.UPDATE,
            LogRecordType.INSERT,
            LogRecordType.DELETE,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"LogRecord(lsn={self.lsn}, {self.record_type.value}, "
            f"txn={self.txn_id}, page={self.page_id}, slot={self.slot})"
        )
