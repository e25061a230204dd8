"""Buffer-manager statistics: hits, migrations, inclusivity, write volume.

The inclusivity ratio (§3.3) quantifies duplication across the DRAM and
NVM buffers::

    inclusivity = |DRAM ∩ NVM| / |DRAM ∪ NVM|

Lower non-zero values mean more distinct pages are cached for the same
capacity, which is the mechanism behind the lazy policies' wins in
Table 2 / Figs. 6-7.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields


@dataclass
class BufferStats:
    """Counters accumulated by one buffer manager instance.

    The core components increment them inline, beside the event they
    publish for the same action, through the shared ``TierChain.stats``.
    """

    reads: int = 0
    writes: int = 0
    dram_hits: int = 0
    nvm_hits: int = 0
    ssd_fetches: int = 0
    #: Reads served directly from the NVM copy (DRAM bypassed, §3.1).
    nvm_direct_reads: int = 0
    #: Writes applied directly to the NVM copy (DRAM bypassed, §3.2).
    nvm_direct_writes: int = 0
    #: Page migrations by path.
    ssd_to_dram: int = 0
    ssd_to_nvm: int = 0
    nvm_to_dram: int = 0
    dram_to_nvm: int = 0
    dram_to_ssd: int = 0
    nvm_to_ssd: int = 0
    dram_evictions: int = 0
    nvm_evictions: int = 0
    clean_drops: int = 0
    dirty_page_flushes: int = 0
    mini_page_promotions: int = 0
    fine_grained_loads: int = 0

    @property
    def operations(self) -> int:
        return self.reads + self.writes

    @property
    def dram_hit_ratio(self) -> float:
        if not self.operations:
            return 0.0
        return self.dram_hits / self.operations

    @property
    def buffer_hit_ratio(self) -> float:
        """Fraction of operations served without touching SSD."""
        if not self.operations:
            return 0.0
        return 1.0 - self.ssd_fetches / self.operations

    @property
    def upward_migrations(self) -> int:
        return self.ssd_to_dram + self.ssd_to_nvm + self.nvm_to_dram

    @property
    def downward_migrations(self) -> int:
        return self.dram_to_nvm + self.dram_to_ssd + self.nvm_to_ssd

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def snapshot(self) -> "BufferStats":
        copy = BufferStats()
        for f in fields(self):
            setattr(copy, f.name, getattr(self, f.name))
        return copy

    def delta_since(self, baseline: "BufferStats") -> "BufferStats":
        delta = BufferStats()
        for f in fields(self):
            setattr(delta, f.name, getattr(self, f.name) - getattr(baseline, f.name))
        return delta

    def merge(self, other: "BufferStats") -> "BufferStats":
        """Add another run's counters into this one (returns ``self``).

        Used to aggregate per-cell stats when many executor cells feed
        one metrics export, e.g. to reconcile the merged
        ``op_latency_ns`` histogram count against total operations.
        """
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self


def inclusivity_ratio(dram_pages: set[int], nvm_pages: set[int]) -> float:
    """Degree of duplication across the DRAM and NVM buffers (§3.3).

    Returns 0 when either buffer is empty (no duplication possible).
    """
    union = dram_pages | nvm_pages
    if not union:
        return 0.0
    return len(dram_pages & nvm_pages) / len(union)


@dataclass
class InclusivitySample:
    """One periodic observation of buffer occupancy overlap."""

    dram_pages: int
    nvm_pages: int
    shared_pages: int

    @property
    def ratio(self) -> float:
        union = self.dram_pages + self.nvm_pages - self.shared_pages
        if union <= 0:
            return 0.0
        return self.shared_pages / union


class InclusivityTracker:
    """Collects periodic inclusivity samples and reports their mean.

    Table 2 of the paper reports steady-state inclusivity; sampling every
    N operations and averaging avoids a misleading single end-of-run
    observation.  The migrations that create (and destroy) the
    duplication are :class:`BufferStats`'s per-path counters.
    """

    def __init__(self) -> None:
        self._samples: list[InclusivitySample] = []
        self._lock = threading.Lock()

    def sample(self, dram_pages: set[int], nvm_pages: set[int]) -> InclusivitySample:
        observation = InclusivitySample(
            dram_pages=len(dram_pages),
            nvm_pages=len(nvm_pages),
            shared_pages=len(dram_pages & nvm_pages),
        )
        with self._lock:
            self._samples.append(observation)
        return observation

    @property
    def num_samples(self) -> int:
        with self._lock:
            return len(self._samples)

    def mean_ratio(self) -> float:
        with self._lock:
            if not self._samples:
                return 0.0
            return sum(s.ratio for s in self._samples) / len(self._samples)

    def reset(self) -> None:
        with self._lock:
            self._samples.clear()
