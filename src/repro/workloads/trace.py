"""Access-trace recording and replay.

A trace is a flat sequence of page accesses.  Traces make experiments
repeatable across buffer managers (``examples/hymem_comparison.py``
replays one recorded stream through HyMem and Spitfire-Lazy; the
figures, Fig. 12 included, run seeded generators through ``run_cell``
instead) and allow captured workloads to be replayed offline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ..np_compat import np
from .tpcc import PageAccess


class AccessBatch:
    """A struct-of-arrays batch of page accesses.

    Columns are parallel numpy arrays when numpy is installed and plain
    lists otherwise — the same convention as
    :class:`~repro.workloads.ycsb.OpBatch`.
    """

    __slots__ = ("page_ids", "offsets", "sizes", "is_writes")

    def __init__(self, page_ids, offsets, sizes, is_writes) -> None:
        if np is not None:
            self.page_ids = np.asarray(page_ids, dtype=np.int64)
            self.offsets = np.asarray(offsets, dtype=np.int64)
            self.sizes = np.asarray(sizes, dtype=np.int64)
            self.is_writes = np.asarray(is_writes, dtype=bool)
        else:
            self.page_ids = page_ids
            self.offsets = offsets
            self.sizes = sizes
            self.is_writes = is_writes

    def __len__(self) -> int:
        return len(self.page_ids)

    @classmethod
    def from_accesses(cls, accesses: Iterable[PageAccess]) -> "AccessBatch":
        """Columnarise a row-oriented access sequence."""
        page_ids: list[int] = []
        offsets: list[int] = []
        sizes: list[int] = []
        is_writes: list[bool] = []
        for access in accesses:
            page_ids.append(access.page_id)
            offsets.append(access.offset)
            sizes.append(access.nbytes)
            is_writes.append(access.is_write)
        return cls(page_ids, offsets, sizes, is_writes)


@dataclass
class Trace:
    """An in-memory access trace."""

    accesses: list[PageAccess]

    def __len__(self) -> int:
        return len(self.accesses)

    def __iter__(self) -> Iterator[PageAccess]:
        return iter(self.accesses)

    def batches(self, batch_size: int) -> Iterator[AccessBatch]:
        """The trace as successive struct-of-arrays batches.

        The final batch may be short; concatenating all batches yields
        the original access order exactly.
        """
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        for start in range(0, len(self.accesses), batch_size):
            yield AccessBatch.from_accesses(
                self.accesses[start:start + batch_size]
            )

    @property
    def num_pages(self) -> int:
        if not self.accesses:
            return 0
        return max(a.page_id for a in self.accesses) + 1

    @property
    def write_fraction(self) -> float:
        if not self.accesses:
            return 0.0
        return sum(1 for a in self.accesses if a.is_write) / len(self.accesses)

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

    # ------------------------------------------------------------------
    # Persistence (JSON-lines keeps traces diffable and inspectable)
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for access in self.accesses:
                fh.write(json.dumps({
                    "page": access.page_id,
                    "off": access.offset,
                    "len": access.nbytes,
                    "w": int(access.is_write),
                }) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Trace":
        accesses: list[PageAccess] = []
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                raw = json.loads(line)
                accesses.append(PageAccess(
                    page_id=raw["page"],
                    offset=raw["off"],
                    nbytes=raw["len"],
                    is_write=bool(raw["w"]),
                ))
        return cls(accesses)
