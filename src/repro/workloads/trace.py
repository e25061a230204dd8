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
