"""Page layouts: full pages, cache-line-grained pages, mini pages.

Implements the page layer of both HyMem and Spitfire, including the two
HyMem layout optimizations the paper revisits in §6.5 (cache-line-grained
loading and the mini-page layout) and the loading-granularity model used
in the Fig. 11 sweep.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "cacheline_page": ("CACHE_LINE_PAGE_HEADER_BYTES", "CacheLinePage"),
    "granularity": ("FIG11_GRANULARITIES", "HYMEM_LOADING_UNIT",
                    "OPTANE_LOADING_UNIT", "LoadingUnit"),
    "mini_page": ("MINI_PAGE_BYTES", "MINI_PAGE_HEADER_BYTES",
                  "MINI_PAGE_SLOTS", "MiniPage", "MiniPageOverflow"),
    "page": ("INVALID_PAGE_ID", "Page", "PageId"),
})
