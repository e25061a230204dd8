"""YCSB workload (Cooper et al. [6]) as used in the paper (§6.1).

One table of ~1 KB tuples (4 B key + ten 100 B string columns), keys
drawn from a scrambled Zipfian distribution (default skew z = 0.3).
Three mixes:

* **YCSB-RO** — 100% reads,
* **YCSB-BA** — 50% reads / 50% updates,
* **YCSB-WH** — 10% reads / 90% updates.

A read fetches the whole tuple; an update rewrites one 100 B column.
The generator emits logical operations; adapters below map them onto
buffer-manager page accesses or engine transactions.
"""

from __future__ import annotations

import enum
import functools
import random
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from ..hardware.specs import PAGE_SIZE
from .zipf import ScrambledZipfianGenerator, UniformGenerator

#: YCSB tuple layout from §6.1: 4 B key + 10 × 100 B columns ≈ 1 KB.
TUPLE_SIZE = 1024
COLUMN_SIZE = 100
NUM_COLUMNS = 10
TUPLES_PER_PAGE = PAGE_SIZE // TUPLE_SIZE

#: Table shapes whose priming ranking is kept: a figure's cells share
#: one or two, the database-size sweep (Fig. 15) cycles through ten.
_POPULARITY_SHAPES = 16


class OpKind(enum.Enum):
    READ = "read"
    UPDATE = "update"


class Operation(NamedTuple):
    """One logical YCSB operation."""

    kind: OpKind
    key: int
    column: int = 0

    @property
    def is_write(self) -> bool:
        return self.kind is OpKind.UPDATE


class OpBatch:
    """A struct-of-arrays batch of YCSB operations.

    The columns are positionally parallel lists; the derived physical
    columns (page id, intra-page offset) are computed in bulk rather
    than per op.
    """

    __slots__ = ("keys", "is_writes", "columns")

    def __init__(self, keys: list[int], is_writes: list[bool],
                 columns: list[int]) -> None:
        self.keys = keys
        self.is_writes = is_writes
        self.columns = columns

    def __len__(self) -> int:
        return len(self.keys)

    @property
    def page_ids(self) -> list[int]:
        """Physical page of each key (bulk ``page_of``)."""
        return [key // TUPLES_PER_PAGE for key in self.keys]

    @property
    def offsets(self) -> list[int]:
        """Intra-page byte offset of each access (bulk ``offset_of``)."""
        return [
            (key % TUPLES_PER_PAGE) * TUPLE_SIZE + 4 + column * COLUMN_SIZE
            for key, column in zip(self.keys, self.columns)
        ]


@dataclass(frozen=True)
class YcsbMix:
    """Read/update proportions of one workload variant."""

    name: str
    read_fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")


YCSB_RO = YcsbMix("YCSB-RO", 1.0)
YCSB_BA = YcsbMix("YCSB-BA", 0.5)
YCSB_WH = YcsbMix("YCSB-WH", 0.1)

MIXES = {mix.name: mix for mix in (YCSB_RO, YCSB_BA, YCSB_WH)}


class YcsbWorkload:
    """Stream of YCSB operations over ``num_tuples`` keys."""

    def __init__(
        self,
        num_tuples: int,
        mix: YcsbMix = YCSB_BA,
        skew: float = 0.3,
        seed: int = 1,
    ) -> None:
        if num_tuples <= 0:
            raise ValueError("num_tuples must be positive")
        self.num_tuples = num_tuples
        self.mix = mix
        self.skew = skew
        self.rng = random.Random(seed)
        if skew > 0:
            self._keys = ScrambledZipfianGenerator(num_tuples, skew, seed + 1)
        else:
            self._keys = UniformGenerator(num_tuples, seed + 1)

    @property
    def num_pages(self) -> int:
        """Pages needed to hold the table."""
        return (self.num_tuples + TUPLES_PER_PAGE - 1) // TUPLES_PER_PAGE

    def next_op(self) -> Operation:
        key = self._keys.next()
        if self.rng.random() < self.mix.read_fraction:
            return Operation(OpKind.READ, key)
        return Operation(OpKind.UPDATE, key, column=self.rng.randrange(NUM_COLUMNS))

    def operations(self, count: int) -> Iterator[Operation]:
        for _ in range(count):
            yield self.next_op()

    def next_ops(self, count: int) -> OpBatch:
        """``count`` operations as a struct-of-arrays batch.

        Replays :meth:`next_op`'s RNG draw order exactly (key draw, mix
        draw, column draw on updates), so a seeded workload produces the
        same operation stream whether consumed one op or one batch at a
        time.
        """
        keys: list[int] = []
        is_writes: list[bool] = []
        columns: list[int] = []
        next_key = self._keys.next
        rng = self.rng
        read_fraction = self.mix.read_fraction
        for _ in range(count):
            keys.append(next_key())
            if rng.random() < read_fraction:
                is_writes.append(False)
                columns.append(0)
            else:
                is_writes.append(True)
                columns.append(rng.randrange(NUM_COLUMNS))
        return OpBatch(keys, is_writes, columns)

    def page_popularity(self, samples: int = 30_000) -> list[int]:
        """Pages ranked hottest-first, estimated by sampling the key
        distribution with an independent generator.

        Used for warm-start buffer priming: the ranking reflects the
        workload's steady-state residency, not any particular run —
        the sampler's seed is fixed, so it depends on the table's shape
        alone and is computed once per shape (:func:`_ranked_pages`).
        The returned list is the caller's own.
        """
        return list(_ranked_pages(self.num_tuples, self.skew, samples,
                                  self.num_pages))

    # ------------------------------------------------------------------
    # Physical mapping helpers
    # ------------------------------------------------------------------
    @staticmethod
    def page_of(key: int) -> int:
        return key // TUPLES_PER_PAGE

    @staticmethod
    def offset_of(key: int, column: int = 0) -> int:
        slot = key % TUPLES_PER_PAGE
        return slot * TUPLE_SIZE + 4 + column * COLUMN_SIZE

    @staticmethod
    def access_bytes(op: Operation) -> int:
        """Bytes touched: whole tuple on read, one column on update."""
        return TUPLE_SIZE if op.kind is OpKind.READ else COLUMN_SIZE


@functools.lru_cache(maxsize=_POPULARITY_SHAPES)
def _ranked_pages(num_tuples: int, skew: float, samples: int,
                  num_pages: int) -> tuple[int, ...]:
    """The ranking behind :meth:`YcsbWorkload.page_popularity`."""
    if skew > 0:
        sampler = ScrambledZipfianGenerator(num_tuples, skew, seed=987_654)
    else:
        sampler = UniformGenerator(num_tuples, seed=987_654)
    counts: dict[int, int] = {}
    for _ in range(samples):
        page = sampler.next() // TUPLES_PER_PAGE
        counts[page] = counts.get(page, 0) + 1
    ranked = sorted(counts, key=counts.get, reverse=True)
    seen = set(ranked)
    # Unsampled pages follow in id order (they are all equally cold).
    ranked.extend(p for p in range(num_pages) if p not in seen)
    return tuple(ranked)


def make_payload(rng: random.Random, size: int = COLUMN_SIZE) -> bytes:
    """Random string-column payload for engine-level runs."""
    return bytes(rng.getrandbits(8) for _ in range(min(size, 16))) * (
        max(1, size // 16)
    )
