"""The assembled storage engine: BM + B+Tree + MVTO + WAL."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "engine": ("EngineConfig", "StorageEngine"),
    "table": ("RecordId", "Table"),
})
