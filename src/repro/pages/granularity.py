"""Loading-granularity model (Fig. 11 of the paper).

HyMem loads NVM data into DRAM at cache-line (64 B) granularity.  Optane
DC PMMs, however, access media in 256 B blocks, so a 64 B load still
costs a 256 B media read — pure I/O amplification.  Conversely, very
large loading units (512 B+) transfer data the access never touches.
Throughput therefore peaks at the 256 B media granularity.

:class:`LoadingUnit` converts a byte-range access into the number of
loading-unit transfers and the bytes actually moved on the device.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hardware.specs import CACHE_LINE_SIZE, NVM_MEDIA_GRANULARITY, PAGE_SIZE

#: The loading granularities swept in Fig. 11.
FIG11_GRANULARITIES = (64, 128, 256, 512)


@dataclass(frozen=True)
class LoadingUnit:
    """Granularity at which data moves from NVM into a DRAM page copy."""

    nbytes: int = NVM_MEDIA_GRANULARITY

    def __post_init__(self) -> None:
        if self.nbytes < CACHE_LINE_SIZE:
            raise ValueError("loading unit must be at least one cache line")
        if self.nbytes % CACHE_LINE_SIZE:
            raise ValueError("loading unit must be a multiple of the cache line size")
        if self.nbytes > PAGE_SIZE:
            raise ValueError("loading unit cannot exceed the page size")

    @property
    def lines_per_unit(self) -> int:
        return self.nbytes // CACHE_LINE_SIZE

    def units_for_bytes(self, nbytes: int) -> int:
        """Number of loading-unit transfers covering an ``nbytes`` access."""
        if nbytes <= 0:
            return 0
        return (nbytes + self.nbytes - 1) // self.nbytes

    def media_bytes(self, nbytes: int, media_granularity: int = NVM_MEDIA_GRANULARITY) -> int:
        """Bytes actually read from media, including amplification.

        Each loading-unit transfer is rounded up to the device media
        granularity independently, which is what penalises 64 B loading
        units on a 256 B-granularity device.
        """
        units = self.units_for_bytes(nbytes)
        per_unit = max(self.nbytes, media_granularity)
        # Round per-unit transfer up to a whole number of media blocks.
        blocks = (per_unit + media_granularity - 1) // media_granularity
        return units * blocks * media_granularity

    def amplification(self, nbytes: int) -> float:
        """media bytes / useful bytes for an ``nbytes`` access."""
        if nbytes <= 0:
            return 0.0
        return self.media_bytes(nbytes) / nbytes


#: Default loading unit once tuned for Optane (§6.5 recommends 256 B).
OPTANE_LOADING_UNIT = LoadingUnit(NVM_MEDIA_GRANULARITY)

#: HyMem's original cache-line loading unit.
HYMEM_LOADING_UNIT = LoadingUnit(CACHE_LINE_SIZE)
