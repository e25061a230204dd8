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

    #: ``value`` as ASCII bytes — the type's spelling inside the
    #: checksummed encoding.  A plain attribute set per member below:
    #: ``.value`` is two Python-level calls, and this sits under every
    #: appended record.
    tag: bytes


for _member in LogRecordType:
    _member.tag = _member.value.encode("ascii")
del _member


def record_checksum(lsn: int, record_type: LogRecordType, txn_id: int,
                    page_id: int, slot: int, prev_lsn: int,
                    before: bytes | None, after: bytes | None,
                    undo_next_lsn: int) -> int:
    """CRC32 over a canonical encoding of a record's payload fields.

    Takes the fields, not a record, so the append path can checksum
    first and construct the frozen :class:`LogRecord` once.  The
    encoding is built as one buffer and checksummed in one call:
    ``lsn|type|txn|page|slot|prev|undo_next|`` in decimal, then each
    image length-prefixed (``<len>:<bytes>``) so (b"ab", b"") and
    (b"a", b"b") cannot collide, ``-`` for an absent image so ``None``
    stays distinct from ``b""``.
    """
    return zlib.crc32(b"%d|%b|%d|%d|%d|%d|%d|%b%b" % (
        lsn, record_type.tag, txn_id, page_id, slot, prev_lsn, undo_next_lsn,
        b"-" if before is None else b"%d:%b" % (len(before), before),
        b"-" if after is None else b"%d:%b" % (len(after), after),
    ))


def record_size(before: bytes | None, after: bytes | None) -> int:
    """Estimated on-media size of a record carrying these images
    (from the fields, like :func:`record_checksum`)."""
    size = LOG_RECORD_HEADER_BYTES
    if before is not None:
        size += len(before)
    if after is not None:
        size += len(after)
    return size


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

    def __init__(self, lsn: int, record_type: LogRecordType, txn_id: int,
                 page_id: int = -1, slot: int = -1, prev_lsn: int = -1,
                 before: bytes | None = None, after: bytes | None = None,
                 undo_next_lsn: int = -1, checksum: int = 0) -> None:
        # The generated ``__init__`` of a frozen dataclass pays one
        # ``object.__setattr__`` per field; the ten fields go in as one
        # store.  ``__setattr__``/``__delattr__`` still raise, and
        # ``dataclasses.replace`` still constructs through here.
        object.__setattr__(self, "__dict__", {
            "lsn": lsn, "record_type": record_type, "txn_id": txn_id,
            "page_id": page_id, "slot": slot, "prev_lsn": prev_lsn,
            "before": before, "after": after,
            "undo_next_lsn": undo_next_lsn, "checksum": checksum,
        })

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
        return record_size(self.before, self.after)

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
