"""Cache replacement policies: CLOCK (the paper's choice), LRU, FIFO."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "base": ("ReplacementPolicy",),
    "clock": ("ClockReplacer",),
    "fifo": ("FifoReplacer",),
    "lru": ("LruReplacer",),
    "registry": ("POLICIES", "make_replacer"),
})
