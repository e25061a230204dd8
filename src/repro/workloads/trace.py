"""Access-trace recording and replay.

A trace is a flat sequence of page accesses.  Traces make experiments
repeatable across buffer managers (``examples/hymem_comparison.py``
replays one recorded stream through HyMem and Spitfire-Lazy; the
figures, Fig. 12 included, run seeded generators through ``run_cell``
instead).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .tpcc import PageAccess


@dataclass
class Trace:
    """An in-memory access trace."""

    accesses: list[PageAccess]

    def __len__(self) -> int:
        return len(self.accesses)

    def __iter__(self) -> Iterator[PageAccess]:
        return iter(self.accesses)

    @property
    def num_pages(self) -> int:
        if not self.accesses:
            return 0
        return max(a.page_id for a in self.accesses) + 1

    # ------------------------------------------------------------------
    @classmethod
    def record(cls, accesses: Iterable[PageAccess], limit: int | None = None) -> "Trace":
        """Materialise up to ``limit`` accesses from a generator."""
        collected: list[PageAccess] = []
        for access in accesses:
            collected.append(access)
            if limit is not None and len(collected) >= limit:
                break
        return cls(collected)
