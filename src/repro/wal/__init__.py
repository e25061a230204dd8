"""NVM-aware write-ahead logging, checkpointing, and recovery (§5.2)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "checkpoint": ("Checkpointer", "CheckpointRecordKeeper"),
    "log_manager": ("LogManager", "LogStats"),
    "records": ("LOG_RECORD_HEADER_BYTES", "LogRecord", "LogRecordType"),
    "recovery": ("RecoveryManager", "RecoveryReport"),
})
