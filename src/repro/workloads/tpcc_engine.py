"""Engine-level TPC-C: the five transactions executed on the storage engine.

While :mod:`repro.workloads.tpcc` reproduces TPC-C's page *access
pattern* for buffer-manager experiments, this module implements the
benchmark's actual transaction logic — schema, population, and the five
transaction types with their standard parameter distributions — against
:class:`~repro.engine.StorageEngine`, i.e. through the B+Tree index,
MVTO, and the WAL. It is the workload the paper's engine-level numbers
correspond to, scaled down by a warehouse count.

Simplifications (documented, standard for research prototypes):
secondary indexes (customer-by-last-name) are modelled by scanning a
small candidate set; monetary fields are integers (cents).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from ..engine.engine import StorageEngine
from ..txn.transaction import Transaction, TransactionAborted
from .zipf import nurand

#: Scaled-down per-warehouse cardinalities (full TPC-C: 10 districts,
#: 3000 customers/district, 100k items/stock). The ratios are kept.
DISTRICTS_PER_WAREHOUSE = 10
CUSTOMERS_PER_DISTRICT = 30
ITEMS = 1000

#: Standard transaction mix.
TXN_WEIGHTS = (
    ("new_order", 0.45),
    ("payment", 0.43),
    ("order_status", 0.04),
    ("delivery", 0.04),
    ("stock_level", 0.04),
)


def _encode(record: dict) -> bytes:
    return json.dumps(record, separators=(",", ":")).encode()


def _decode(value: bytes) -> dict:
    return json.loads(value.decode())


@dataclass
class TpccStats:
    """Per-transaction-type outcome counters."""

    committed: dict[str, int] = field(default_factory=dict)
    aborted: dict[str, int] = field(default_factory=dict)

    def record(self, kind: str, ok: bool) -> None:
        bucket = self.committed if ok else self.aborted
        bucket[kind] = bucket.get(kind, 0) + 1

    @property
    def total_committed(self) -> int:
        return sum(self.committed.values())


class TpccEngine:
    """TPC-C schema, loader, and transaction implementations."""

    def __init__(self, engine: StorageEngine, warehouses: int = 2,
                 seed: int = 1) -> None:
        if warehouses <= 0:
            raise ValueError("warehouses must be positive")
        self.engine = engine
        self.warehouses = warehouses
        self.rng = random.Random(seed)
        self.stats = TpccStats()
        self._next_order_id: dict[tuple[int, int], int] = {}
        for name, tuple_size in (
            ("warehouse", 128), ("district", 128), ("customer", 512),
            ("item", 128), ("stock", 256), ("orders", 128),
            ("order_line", 128), ("new_orders", 64), ("history", 128),
        ):
            engine.create_table(name, tuple_size=tuple_size)
        self._history_seq = 0

    # ------------------------------------------------------------------
    # Population
    # ------------------------------------------------------------------
    def load(self) -> None:
        """Populate the initial database (TPC-C clause 4.3, scaled)."""
        engine = self.engine

        def populate(txn: Transaction) -> None:
            for item in range(ITEMS):
                engine.insert(txn, "item", item, _encode({
                    "name": f"item-{item}", "price": 100 + item % 900,
                }))
            for w in range(self.warehouses):
                engine.insert(txn, "warehouse", w, _encode({
                    "name": f"w{w}", "ytd": 0,
                }))
                for d in range(DISTRICTS_PER_WAREHOUSE):
                    engine.insert(txn, "district", (w, d), _encode({
                        "ytd": 0, "next_o_id": 1,
                    }))
                    self._next_order_id[(w, d)] = 1
                    for c in range(CUSTOMERS_PER_DISTRICT):
                        engine.insert(txn, "customer", (w, d, c), _encode({
                            "last": f"name{c % 10}", "balance": -1000,
                            "ytd_payment": 1000, "payment_cnt": 1,
                        }))
                for item in range(ITEMS):
                    engine.insert(txn, "stock", (w, item), _encode({
                        "quantity": 50 + item % 50, "ytd": 0, "order_cnt": 0,
                    }))

        engine.execute(populate)

    # ------------------------------------------------------------------
    # Parameter generation (TPC-C clause 2 distributions)
    # ------------------------------------------------------------------
    def _random_warehouse(self) -> int:
        return self.rng.randrange(self.warehouses)

    def _random_district(self) -> int:
        return self.rng.randrange(DISTRICTS_PER_WAREHOUSE)

    def _random_customer(self) -> int:
        return nurand(self.rng, 1023, 0, CUSTOMERS_PER_DISTRICT - 1)

    def _random_item(self) -> int:
        return nurand(self.rng, 8191, 0, ITEMS - 1)

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def run_one(self) -> str:
        """Pick a transaction per the standard mix and execute it."""
        draw = self.rng.random()
        cumulative = 0.0
        kind = TXN_WEIGHTS[-1][0]
        for name, weight in TXN_WEIGHTS:
            cumulative += weight
            if draw < cumulative:
                kind = name
                break
        runner = getattr(self, f"txn_{kind}")
        try:
            runner()
            self.stats.record(kind, ok=True)
        except TransactionAborted:
            self.stats.record(kind, ok=False)
        return kind

    def txn_new_order(self) -> int:
        """Enter an order of 5-15 lines; 1% remote stock (clause 2.4)."""
        engine = self.engine
        w = self._random_warehouse()
        d = self._random_district()
        c = self._random_customer()
        lines = [
            (self._random_item(),
             self._random_warehouse()
             if self.warehouses > 1 and self.rng.random() < 0.01 else w,
             self.rng.randint(1, 10))
            for _ in range(self.rng.randint(5, 15))
        ]

        def body(txn: Transaction) -> int:
            district = _decode(engine.read(txn, "district", (w, d)))
            order_id = district["next_o_id"]
            district["next_o_id"] = order_id + 1
            engine.update(txn, "district", (w, d), _encode(district))
            engine.read(txn, "customer", (w, d, c))
            total = 0
            for number, (item_id, supply_w, quantity) in enumerate(lines):
                item = _decode(engine.read(txn, "item", item_id))
                stock = _decode(engine.read(txn, "stock", (supply_w, item_id)))
                if stock["quantity"] >= quantity + 10:
                    stock["quantity"] -= quantity
                else:
                    stock["quantity"] += 91 - quantity
                stock["ytd"] += quantity
                stock["order_cnt"] += 1
                engine.update(txn, "stock", (supply_w, item_id), _encode(stock))
                amount = item["price"] * quantity
                total += amount
                engine.insert(txn, "order_line", (w, d, order_id, number),
                              _encode({"item": item_id, "qty": quantity,
                                       "amount": amount}))
            engine.insert(txn, "orders", (w, d, order_id), _encode({
                "customer": c, "lines": len(lines), "carrier": None,
            }))
            engine.insert(txn, "new_orders", (w, d, order_id), _encode({}))
            return order_id

        return engine.execute(body)

    def txn_payment(self) -> None:
        """Record a customer payment; 15% remote customers (clause 2.5)."""
        engine = self.engine
        w = self._random_warehouse()
        d = self._random_district()
        cust_w = w
        if self.warehouses > 1 and self.rng.random() < 0.15:
            cust_w = self._random_warehouse()
        c = self._random_customer()
        amount = self.rng.randint(100, 500_000)
        history_id = self._history_seq
        self._history_seq += 1

        def body(txn: Transaction) -> None:
            warehouse = _decode(engine.read(txn, "warehouse", w))
            warehouse["ytd"] += amount
            engine.update(txn, "warehouse", w, _encode(warehouse))
            district = _decode(engine.read(txn, "district", (w, d)))
            district["ytd"] += amount
            engine.update(txn, "district", (w, d), _encode(district))
            customer = _decode(engine.read(txn, "customer", (cust_w, d, c)))
            customer["balance"] -= amount
            customer["ytd_payment"] += amount
            customer["payment_cnt"] += 1
            engine.update(txn, "customer", (cust_w, d, c), _encode(customer))
            engine.insert(txn, "history", (w, d, history_id), _encode({
                "customer": (cust_w, d, c), "amount": amount,
            }))

        engine.execute(body)

    def txn_order_status(self) -> dict | None:
        """Read a customer's most recent order (read-only, clause 2.6)."""
        engine = self.engine
        w = self._random_warehouse()
        d = self._random_district()
        c = self._random_customer()

        def body(txn: Transaction) -> dict | None:
            engine.read(txn, "customer", (w, d, c))
            next_o_id = self._next_order_id_hint(txn, w, d)
            for order_id in range(next_o_id - 1, max(0, next_o_id - 20), -1):
                raw = engine.read(txn, "orders", (w, d, order_id))
                if raw is None:
                    continue
                order = _decode(raw)
                if order["customer"] != c:
                    continue
                for number in range(order["lines"]):
                    engine.read(txn, "order_line", (w, d, order_id, number))
                return order
            return None

        return engine.execute(body)

    def txn_delivery(self) -> int:
        """Deliver the oldest undelivered order per district (clause 2.7)."""
        engine = self.engine
        w = self._random_warehouse()

        def body(txn: Transaction) -> int:
            delivered = 0
            for d in range(DISTRICTS_PER_WAREHOUSE):
                pending = engine.scan(txn, "new_orders", (w, d, 0),
                                      (w, d, 1 << 30))
                if not pending:
                    continue
                (key, _value) = pending[0]
                order_id = key[2]
                engine.delete(txn, "new_orders", key)
                raw = engine.read(txn, "orders", (w, d, order_id))
                if raw is None:
                    continue
                order = _decode(raw)
                order["carrier"] = self.rng.randint(1, 10)
                engine.update(txn, "orders", (w, d, order_id), _encode(order))
                total = 0
                for number in range(order["lines"]):
                    line_raw = engine.read(txn, "order_line",
                                           (w, d, order_id, number))
                    if line_raw is not None:
                        total += _decode(line_raw)["amount"]
                c = order["customer"]
                customer = _decode(engine.read(txn, "customer", (w, d, c)))
                customer["balance"] += total
                engine.update(txn, "customer", (w, d, c), _encode(customer))
                delivered += 1
            return delivered

        return engine.execute(body)

    def txn_stock_level(self) -> int:
        """Count low-stock items on recent orders (read-only, clause 2.8)."""
        engine = self.engine
        w = self._random_warehouse()
        d = self._random_district()
        threshold = self.rng.randint(10, 20)

        def body(txn: Transaction) -> int:
            next_o_id = self._next_order_id_hint(txn, w, d)
            seen: set[int] = set()
            for order_id in range(next_o_id - 1, max(0, next_o_id - 20), -1):
                raw = engine.read(txn, "orders", (w, d, order_id))
                if raw is None:
                    continue
                order = _decode(raw)
                for number in range(order["lines"]):
                    line_raw = engine.read(txn, "order_line",
                                           (w, d, order_id, number))
                    if line_raw is not None:
                        seen.add(_decode(line_raw)["item"])
            low = 0
            for item_id in seen:
                stock = _decode(engine.read(txn, "stock", (w, item_id)))
                if stock["quantity"] < threshold:
                    low += 1
            return low

        return engine.execute(body)

    # ------------------------------------------------------------------
    def _next_order_id_hint(self, txn: Transaction, w: int, d: int) -> int:
        raw = self.engine.read(txn, "district", (w, d))
        return _decode(raw)["next_o_id"]

    # ------------------------------------------------------------------
    # Consistency conditions (TPC-C clause 3.3, the checkable subset)
    # ------------------------------------------------------------------
    def check_consistency(self) -> None:
        """Assert the invariants the committed state must satisfy."""
        engine = self.engine

        def body(txn: Transaction) -> None:
            for w in range(self.warehouses):
                warehouse = _decode(engine.read(txn, "warehouse", w))
                district_ytd = 0
                for d in range(DISTRICTS_PER_WAREHOUSE):
                    district = _decode(engine.read(txn, "district", (w, d)))
                    district_ytd += district["ytd"]
                    next_o_id = district["next_o_id"]
                    # Condition 2-ish: no order at or beyond next_o_id.
                    assert engine.read(txn, "orders", (w, d, next_o_id)) is None
                    # Every order below next_o_id that exists has its
                    # order lines present.
                    for order_id in range(max(1, next_o_id - 5), next_o_id):
                        raw = engine.read(txn, "orders", (w, d, order_id))
                        if raw is None:
                            continue
                        order = _decode(raw)
                        for number in range(order["lines"]):
                            assert engine.read(
                                txn, "order_line", (w, d, order_id, number)
                            ) is not None
                # Condition 1: W_YTD = sum(D_YTD).
                assert warehouse["ytd"] == district_ytd, (
                    f"warehouse {w}: ytd {warehouse['ytd']} != "
                    f"district sum {district_ytd}"
                )

        engine.execute(body)
