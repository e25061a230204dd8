"""Engine-level YCSB: the key-value mixes executed transactionally.

The paper runs YCSB against its full engine — B+Tree index, MVTO, WAL —
not just the buffer manager ("Even on the YCSB-RO workload, SPITFIRE
updates pages containing meta-data related to the MVTO protocol",
§6.4).  This driver loads the §6.1 table (1 KB tuples: 4 B key + ten
100 B columns) into a :class:`~repro.engine.StorageEngine` and executes
the three mixes as single-tuple transactions with retry-on-abort.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..engine.engine import StorageEngine
from ..txn.transaction import TransactionAborted
from .ycsb import COLUMN_SIZE, NUM_COLUMNS, OpKind, TUPLE_SIZE, YcsbMix, YCSB_BA
from .zipf import ScrambledZipfianGenerator, UniformGenerator

TABLE_NAME = "usertable"


@dataclass
class YcsbEngineStats:
    reads: int = 0
    updates: int = 0
    aborts: int = 0

    @property
    def operations(self) -> int:
        return self.reads + self.updates


class YcsbEngine:
    """YCSB driver over the transactional storage engine."""

    def __init__(self, engine: StorageEngine, num_tuples: int,
                 mix: YcsbMix = YCSB_BA, skew: float = 0.3,
                 seed: int = 1) -> None:
        if num_tuples <= 0:
            raise ValueError("num_tuples must be positive")
        if not 0.0 <= skew < 1.0:
            raise ValueError(f"skew must be in [0, 1), got {skew!r}")
        self.engine = engine
        self.num_tuples = num_tuples
        self.mix = mix
        self.rng = random.Random(seed)
        if skew > 0:
            self._keys = ScrambledZipfianGenerator(num_tuples, skew, seed + 1)
        else:
            self._keys = UniformGenerator(num_tuples, seed + 1)
        self.stats = YcsbEngineStats()
        engine.create_table(TABLE_NAME, tuple_size=TUPLE_SIZE)

    # ------------------------------------------------------------------
    def load(self, batch_size: int = 256) -> None:
        """Populate the table (YCSB's load phase), batched per txn."""
        engine = self.engine
        for start in range(0, self.num_tuples, batch_size):
            keys = range(start, min(start + batch_size, self.num_tuples))

            def body(txn):
                for key in keys:
                    engine.insert(txn, TABLE_NAME, key, self._tuple_value(key))

            engine.execute(body)

    def _tuple_value(self, key: int) -> bytes:
        # 4 B key prefix + ten 100 B "string" columns, deterministic.
        columns = b"".join(
            bytes([(key + column) % 251]) * COLUMN_SIZE
            for column in range(NUM_COLUMNS)
        )
        value = key.to_bytes(4, "big") + columns
        # Pad the 4 + 10x100 B layout out to the full tuple size.
        return value.ljust(TUPLE_SIZE, b"\0")[:TUPLE_SIZE]

    # ------------------------------------------------------------------
    def run_one(self) -> OpKind:
        """Execute one transaction of the configured mix."""
        key = self._keys.next()
        if self.rng.random() < self.mix.read_fraction:
            self._read_txn(key)
            self.stats.reads += 1
            return OpKind.READ
        self._update_txn(key, self.rng.randrange(NUM_COLUMNS))
        self.stats.updates += 1
        return OpKind.UPDATE

    def _read_txn(self, key: int) -> bytes | None:
        engine = self.engine
        try:
            return engine.execute(lambda txn: engine.read(txn, TABLE_NAME, key))
        except TransactionAborted:
            self.stats.aborts += 1
            return None

    def _update_txn(self, key: int, column: int) -> None:
        engine = self.engine
        fresh = bytes([self.rng.randrange(256)]) * COLUMN_SIZE

        def body(txn):
            value = engine.read(txn, TABLE_NAME, key)
            if value is None:
                return
            offset = 4 + column * COLUMN_SIZE
            updated = value[:offset] + fresh + value[offset + COLUMN_SIZE:]
            engine.update(txn, TABLE_NAME, key, updated)

        try:
            engine.execute(body)
        except TransactionAborted:
            self.stats.aborts += 1

    def run(self, operations: int) -> YcsbEngineStats:
        for _ in range(operations):
            self.run_one()
        return self.stats

    # ------------------------------------------------------------------
    def verify_tuple(self, key: int) -> bool:
        """Check a tuple's key prefix survived all updates intact."""
        engine = self.engine
        value = engine.execute(lambda txn: engine.read(txn, TABLE_NAME, key))
        if value is None:
            return False
        return int.from_bytes(value[:4], "big") == key
