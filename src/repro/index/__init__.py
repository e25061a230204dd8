"""Concurrent indexing: B+Tree with optimistic lock coupling."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "bptree": ("BPlusTree", "DEFAULT_FANOUT"),
    "olc": ("OlcRestart", "OptimisticLatch"),
})
