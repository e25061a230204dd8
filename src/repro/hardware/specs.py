"""Device characteristic specifications.

The numbers here transcribe Table 1 of the Spitfire paper (SIGMOD '21):
idle latencies, bandwidths, price, addressability, media access granularity,
persistence, and endurance for DRAM, Optane DC PMMs (NVM), and an Optane DC
P4800X SSD.  Every simulated device in :mod:`repro.hardware.device` is
parameterised by a :class:`DeviceSpec`, so alternative hardware (e.g. a
slower flash SSD) can be modelled by constructing a new spec.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

#: Number of bytes in one kibibyte / mebibyte / gibibyte.
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

#: Size of a database page in bytes (the paper uses 16 KB pages throughout).
PAGE_SIZE = 16 * KIB

#: Size of one CPU cache line in bytes.
CACHE_LINE_SIZE = 64

#: Number of cache lines in a full page.
CACHE_LINES_PER_PAGE = PAGE_SIZE // CACHE_LINE_SIZE

#: Optane DC PMMs internally access media in 256 B blocks (§6.5, Fig. 11).
NVM_MEDIA_GRANULARITY = 256

#: Nanoseconds per second, used when converting bandwidths.
NS_PER_S = 1_000_000_000


class Tier(enum.Enum):
    """The storage tiers a buffer manager may compose into a chain."""

    DRAM = "dram"
    NVM = "nvm"
    SSD = "ssd"

    #: Position in the top-down tier ordering (0 is fastest).  A plain
    #: int set per member below: rank-indexed lists stand in for
    #: ``Tier``-keyed dicts on the hot paths, and hashing an enum member
    #: is a Python-level call.
    rank: int

    def __lt__(self, other: "Tier") -> bool:
        return self.rank < other.rank

    @property
    def is_persistent(self) -> bool:
        return self is not Tier.DRAM


#: All tiers, fastest first.
TIER_ORDER: tuple[Tier, ...] = (Tier.DRAM, Tier.NVM, Tier.SSD)
for _rank, _tier in enumerate(TIER_ORDER):
    _tier.rank = _rank
del _rank, _tier

#: Tiers that may carry a buffer pool (everything above the SSD store).
BUFFER_TIER_ORDER: tuple[Tier, ...] = (Tier.DRAM, Tier.NVM)


class Addressability(enum.Enum):
    """Whether the CPU can address the device directly."""

    BYTE = "byte"
    BLOCK = "block"


@dataclass(frozen=True)
class DeviceSpec:
    """Performance and cost characteristics of one storage device.

    Attributes mirror the rows of Table 1 in the paper.  Latencies are in
    nanoseconds, bandwidths in bytes/second, and price in $/GB.
    """

    name: str
    tier: Tier
    seq_read_latency_ns: float
    rand_read_latency_ns: float
    seq_read_bw: float
    rand_read_bw: float
    seq_write_bw: float
    rand_write_bw: float
    price_per_gb: float
    addressability: Addressability
    media_granularity: int
    persistent: bool
    endurance_cycles: float
    #: Extra latency charged for a persistence barrier (clwb + sfence); only
    #: meaningful for persistent, byte-addressable devices.
    persist_barrier_ns: float = 0.0

    def __post_init__(self) -> None:
        if self.media_granularity <= 0:
            raise ValueError("media_granularity must be positive")
        for attr in ("seq_read_bw", "rand_read_bw", "seq_write_bw", "rand_write_bw"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")

    def read_latency_ns(self, sequential: bool = False) -> float:
        """Idle read latency for one access."""
        return self.seq_read_latency_ns if sequential else self.rand_read_latency_ns

    def read_bandwidth(self, sequential: bool = False) -> float:
        """Read bandwidth in bytes/second."""
        return self.seq_read_bw if sequential else self.rand_read_bw

    def write_bandwidth(self, sequential: bool = False) -> float:
        """Write bandwidth in bytes/second."""
        return self.seq_write_bw if sequential else self.rand_write_bw

    def media_bytes(self, nbytes: int) -> int:
        """Bytes actually touched on the media for an ``nbytes`` access.

        Devices move data in multiples of their media access granularity;
        e.g. a 64 B load from Optane still reads a 256 B media block.  This
        is the I/O-amplification effect behind Fig. 11 of the paper.
        """
        if nbytes <= 0:
            return 0
        gran = self.media_granularity
        return ((nbytes + gran - 1) // gran) * gran

    def scaled(self, **overrides: float) -> "DeviceSpec":
        """Return a copy of this spec with selected fields replaced."""
        return replace(self, **overrides)


def _gb_per_s(value: float) -> float:
    return value * 1e9


#: DRAM as characterised in Table 1 (6 modules per socket).
DRAM_SPEC = DeviceSpec(
    name="DDR4 DRAM",
    tier=Tier.DRAM,
    seq_read_latency_ns=75.0,
    rand_read_latency_ns=80.0,
    seq_read_bw=_gb_per_s(180.0),
    rand_read_bw=_gb_per_s(180.0),
    seq_write_bw=_gb_per_s(180.0),
    rand_write_bw=_gb_per_s(180.0),
    price_per_gb=10.0,
    addressability=Addressability.BYTE,
    media_granularity=CACHE_LINE_SIZE,
    persistent=False,
    endurance_cycles=1e10,
)

#: Optane DC Persistent Memory Modules (6 modules per socket).
NVM_SPEC = DeviceSpec(
    name="Optane DC PMM",
    tier=Tier.NVM,
    seq_read_latency_ns=170.0,
    rand_read_latency_ns=320.0,
    seq_read_bw=_gb_per_s(91.2),
    rand_read_bw=_gb_per_s(28.8),
    seq_write_bw=_gb_per_s(27.6),
    rand_write_bw=_gb_per_s(6.0),
    price_per_gb=4.5,
    addressability=Addressability.BYTE,
    media_granularity=NVM_MEDIA_GRANULARITY,
    persistent=True,
    endurance_cycles=1e10,
    persist_barrier_ns=100.0,
)

#: Intel Optane DC P4800X SSD.
SSD_SPEC = DeviceSpec(
    name="Optane DC P4800X SSD",
    tier=Tier.SSD,
    seq_read_latency_ns=10_000.0,
    rand_read_latency_ns=12_000.0,
    seq_read_bw=_gb_per_s(2.6),
    rand_read_bw=_gb_per_s(2.4),
    seq_write_bw=_gb_per_s(2.4),
    rand_write_bw=_gb_per_s(2.3),
    price_per_gb=2.8,
    addressability=Addressability.BLOCK,
    media_granularity=PAGE_SIZE,
    persistent=True,
    endurance_cycles=1e12,
)

#: Specs indexed by tier, as used by default hierarchies.
DEFAULT_SPECS = {
    Tier.DRAM: DRAM_SPEC,
    Tier.NVM: NVM_SPEC,
    Tier.SSD: SSD_SPEC,
}


@dataclass(frozen=True)
class SimulationScale:
    """Mapping between the paper's gigabyte-scale sizes and simulated pages.

    The paper's experiments are ratio experiments (database size relative to
    buffer capacities), so we run them at a reduced scale: by default one
    simulated "GB" is 64 pages of 16 KB.  All byte counts charged to the
    cost model still use real page sizes, so bandwidth figures stay
    meaningful; only capacities shrink.
    """

    pages_per_gb: int = 64

    def pages(self, gigabytes: float) -> int:
        """Number of simulated pages representing ``gigabytes``."""
        if gigabytes < 0:
            raise ValueError("gigabytes must be non-negative")
        return max(0, int(round(gigabytes * self.pages_per_gb)))

    def gigabytes(self, pages: int) -> float:
        """Inverse of :meth:`pages`."""
        return pages / self.pages_per_gb


#: The default scale used by benchmarks and examples.
DEFAULT_SCALE = SimulationScale()
