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
from collections import Counter
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

    ``keys``, ``page_ids`` (bulk ``page_of``) and ``offsets`` (bulk
    ``offset_of``, the updated column included) are positionally
    parallel lists, built when the batch is generated; ``writes`` lists
    the positions of the updates in ascending order — empty for a
    read-only chunk.
    """

    __slots__ = ("keys", "page_ids", "offsets", "writes")

    def __init__(self, keys: list[int], page_ids: list[int],
                 offsets: list[int], writes: list[int]) -> None:
        self.keys = keys
        self.page_ids = page_ids
        self.offsets = offsets
        self.writes = writes

    def __len__(self) -> int:
        return len(self.keys)


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
        if not 0.0 <= skew < 1.0:
            raise ValueError(f"skew must be in [0, 1), got {skew!r}")
        self.num_tuples = num_tuples
        self.mix = mix
        self.skew = skew
        #: The mix stream (read or update, then the updated column); the
        #: keys come from a generator of their own.
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
        # A read-only mix draws nothing from the mix stream: ``random() <
        # 1.0`` always holds, so the draw could not change an op.
        read_fraction = self.mix.read_fraction
        if read_fraction == 1.0 or self.rng.random() < read_fraction:
            return Operation(OpKind.READ, key)
        return Operation(OpKind.UPDATE, key, column=self.rng.randrange(NUM_COLUMNS))

    def operations(self, count: int) -> Iterator[Operation]:
        for _ in range(count):
            yield self.next_op()

    def next_ops(self, count: int) -> OpBatch:
        """``count`` operations as a struct-of-arrays batch.

        The key stream and the mix stream are separate RNGs, so drawing
        the chunk's keys in one pass (``next_many``) and then its mix
        draws (mix draw, column draw on updates) keeps each stream's
        order: a seeded workload produces the same operation stream
        whether consumed one op or one batch at a time.  A read-only mix
        draws no mix at all, as in :meth:`next_op`.
        """
        keys = self._keys.next_many(count)
        page_ids = [key // TUPLES_PER_PAGE for key in keys]
        offsets = [(key % TUPLES_PER_PAGE) * TUPLE_SIZE + 4 for key in keys]
        writes: list[int] = []
        read_fraction = self.mix.read_fraction
        if read_fraction < 1.0:
            random, randrange = self.rng.random, self.rng.randrange
            for position in range(count):
                if random() >= read_fraction:
                    writes.append(position)
                    offsets[position] += randrange(NUM_COLUMNS) * COLUMN_SIZE
        return OpBatch(keys, page_ids, offsets, writes)

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
    # Counted in first-seen order, so equal counts rank as they were seen.
    counts = Counter([key // TUPLES_PER_PAGE
                      for key in sampler.next_many(samples)])
    ranked = sorted(counts, key=counts.get, reverse=True)
    seen = set(ranked)
    # Unsampled pages follow in id order (they are all equally cold).
    ranked.extend(p for p in range(num_pages) if p not in seen)
    return tuple(ranked)
