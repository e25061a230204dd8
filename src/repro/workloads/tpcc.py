"""TPC-C workload [35] as a buffer-access pattern generator (§6.1).

The paper drives its buffer managers with TPC-C configured at 350
warehouses (~100 GB) and measures buffer-manager operations per second.
This module reproduces TPC-C's *access pattern*: the five transaction
types with their standard mix (NewOrder 45%, Payment 43%, OrderStatus
4%, Delivery 4%, StockLevel 4%), the standard non-uniform key
distributions (NURand), per-table row sizes, and append-style inserts
into the history/orders/order-line regions.  Transactions involving
modifications account for 88% of the mix, as the paper notes.

Each transaction expands into a sequence of page accesses
(:class:`PageAccess`), which the harness feeds to a buffer manager.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Iterator

from ..hardware.specs import PAGE_SIZE, SimulationScale
from .zipf import nurand

#: Paper scale: 350 warehouses ≈ 100 GB.
GB_PER_WAREHOUSE = 100.0 / 350.0

#: Approximate row sizes in bytes (TPC-C spec appendix).
ROW_SIZES = {
    "warehouse": 89,
    "district": 95,
    "customer": 655,
    "history": 46,
    "orders": 24,
    "new_order": 8,
    "order_line": 54,
    "stock": 306,
    "item": 82,
}

#: Fraction of the database's bytes per table (steady state, order-line
#: region grown; item is shared across warehouses).
TABLE_FRACTIONS = {
    "stock": 0.40,
    "customer": 0.26,
    "order_line": 0.21,
    "item": 0.07,
    "history": 0.03,
    "orders": 0.02,
    "new_order": 0.003,
    "district": 0.004,
    "warehouse": 0.003,
}

#: Database shapes whose priming ranking is kept: a figure's cells share
#: one or two, the database-size sweep (Fig. 15) cycles through ten.
_POPULARITY_SHAPES = 16

#: Standard transaction mix.
TXN_MIX = (
    ("new_order", 0.45),
    ("payment", 0.43),
    ("order_status", 0.04),
    ("delivery", 0.04),
    ("stock_level", 0.04),
)


@dataclass(frozen=True)
class PageAccess:
    """One page-level access produced by a transaction."""

    page_id: int
    offset: int
    nbytes: int
    is_write: bool


class _TableRegion:
    """A contiguous page range holding one table's rows."""

    __slots__ = ("name", "base_page", "num_pages", "row_size", "rows_per_page",
                 "num_rows")

    def __init__(self, name: str, base_page: int, num_pages: int,
                 row_size: int) -> None:
        self.name = name
        self.base_page = base_page
        self.num_pages = num_pages
        self.row_size = row_size
        self.rows_per_page = max(1, PAGE_SIZE // row_size)
        self.num_rows = num_pages * self.rows_per_page

    def access(self, row: int, is_write: bool) -> PageAccess:
        row %= self.num_rows
        page = self.base_page + row // self.rows_per_page
        offset = (row % self.rows_per_page) * self.row_size
        return PageAccess(page, offset, self.row_size, is_write)


class _GrowingRegion:
    """An append-only table whose pages are allocated as rows arrive.

    TPC-C's orders/order-line/history/new-order tables grow for the
    whole run; the resulting stream of freshly dirtied pages is what
    keeps the SSD busy on write-heavy mixes (new pages must eventually
    be written down).  Page ids are drawn from a shared monotonically
    increasing counter so regions interleave without overlapping.
    """

    __slots__ = ("name", "row_size", "rows_per_page", "pages", "_next_row",
                 "_alloc")

    def __init__(self, name: str, row_size: int, alloc) -> None:
        self.name = name
        self.row_size = row_size
        self.rows_per_page = max(1, PAGE_SIZE // row_size)
        self.pages: list[int] = []
        self._next_row = 0
        self._alloc = alloc

    @property
    def num_rows(self) -> int:
        """Rows inserted so far (at least one page's worth for readers)."""
        return max(self._next_row, self.rows_per_page)

    def append(self) -> PageAccess:
        row = self._next_row
        self._next_row += 1
        page_index = row // self.rows_per_page
        while page_index >= len(self.pages):
            self.pages.append(self._alloc())
        offset = (row % self.rows_per_page) * self.row_size
        return PageAccess(self.pages[page_index], offset, self.row_size,
                          is_write=True)

    def access(self, row: int, is_write: bool) -> PageAccess:
        """Access a previously inserted row (reads wrap over history)."""
        row %= self.num_rows
        page_index = row // self.rows_per_page
        while page_index >= len(self.pages):
            self.pages.append(self._alloc())
        offset = (row % self.rows_per_page) * self.row_size
        return PageAccess(self.pages[page_index], offset, self.row_size,
                          is_write)


class TpccWorkload:
    """TPC-C access-pattern generator sized in (paper-scale) gigabytes."""

    def __init__(self, db_gigabytes: float, scale: SimulationScale,
                 seed: int = 1) -> None:
        if db_gigabytes <= 0:
            raise ValueError("db_gigabytes must be positive")
        self.db_gigabytes = db_gigabytes
        self.scale = scale
        self.rng = random.Random(seed)
        self.warehouses = max(1, int(round(db_gigabytes / GB_PER_WAREHOUSE)))
        total_pages = max(len(TABLE_FRACTIONS), scale.pages(db_gigabytes))
        growing = ("orders", "order_line", "history", "new_order")
        self._next_page = 0

        def alloc() -> int:
            page = self._next_page
            self._next_page += 1
            return page

        self.regions: dict[str, _TableRegion | _GrowingRegion] = {}
        for name, fraction in TABLE_FRACTIONS.items():
            pages = max(1, int(round(total_pages * fraction)))
            if name in growing:
                region = _GrowingRegion(name, ROW_SIZES[name], alloc)
                # Seed the initial database content at the configured size.
                region.pages = [alloc() for _ in range(pages)]
                region._next_row = pages * region.rows_per_page
                self.regions[name] = region
            else:
                base = self._next_page
                self._next_page += pages
                self.regions[name] = _TableRegion(name, base, pages,
                                                  ROW_SIZES[name])
        self.initial_pages = self._next_page
        self.transactions_generated = 0
        self.modifying_transactions = 0

    # ------------------------------------------------------------------
    # Key selection helpers (standard TPC-C randomness)
    # ------------------------------------------------------------------
    def _warehouse_row(self) -> int:
        return self.rng.randrange(self.warehouses)

    def _district_row(self, warehouse: int) -> int:
        return warehouse * 10 + self.rng.randrange(10)

    def _customer_row(self, warehouse: int, district: int) -> int:
        customer = nurand(self.rng, 1023, 0, 2999)
        return (warehouse * 10 + district % 10) * 3000 + customer

    def _item_row(self) -> int:
        return nurand(self.rng, 8191, 0, 99_999)

    def _stock_row(self, warehouse: int, item_row: int) -> int:
        return warehouse * 100_000 + item_row

    @property
    def num_pages(self) -> int:
        """Pages allocated so far (grows as insert transactions run)."""
        return self._next_page

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    def next_transaction(self) -> list[PageAccess]:
        """Generate one transaction's page accesses."""
        draw = self.rng.random()
        cumulative = 0.0
        kind = TXN_MIX[-1][0]
        for name, weight in TXN_MIX:
            cumulative += weight
            if draw < cumulative:
                kind = name
                break
        accesses = getattr(self, f"_txn_{kind}")()
        self.transactions_generated += 1
        if kind in ("new_order", "payment", "delivery"):
            self.modifying_transactions += 1
        return accesses

    def _txn_new_order(self) -> list[PageAccess]:
        r = self.regions
        warehouse = self._warehouse_row()
        district = self._district_row(warehouse)
        ops = [
            r["warehouse"].access(warehouse, is_write=False),
            r["district"].access(district, is_write=False),
            r["district"].access(district, is_write=True),  # next_o_id bump
            r["customer"].access(self._customer_row(warehouse, district),
                                 is_write=False),
        ]
        ol_cnt = self.rng.randint(5, 15)
        for _ in range(ol_cnt):
            item = self._item_row()
            # 1% of order lines are supplied by a remote warehouse.
            supply = warehouse
            if self.warehouses > 1 and self.rng.random() < 0.01:
                supply = self._warehouse_row()
            ops.append(r["item"].access(item, is_write=False))
            stock = self._stock_row(supply, item)
            ops.append(r["stock"].access(stock, is_write=False))
            ops.append(r["stock"].access(stock, is_write=True))
            ops.append(r["order_line"].append())
        ops.append(r["orders"].append())
        ops.append(r["new_order"].append())
        return ops

    def _txn_payment(self) -> list[PageAccess]:
        r = self.regions
        warehouse = self._warehouse_row()
        district = self._district_row(warehouse)
        # 15% of payments are for a customer of a remote warehouse.
        cust_warehouse = warehouse
        if self.warehouses > 1 and self.rng.random() < 0.15:
            cust_warehouse = self._warehouse_row()
        customer = self._customer_row(cust_warehouse, district)
        ops = [
            r["warehouse"].access(warehouse, is_write=False),
            r["warehouse"].access(warehouse, is_write=True),  # ytd
            r["district"].access(district, is_write=False),
            r["district"].access(district, is_write=True),
        ]
        if self.rng.random() < 0.60:
            # Lookup by last name: scan a handful of candidate customers.
            for _ in range(self.rng.randint(2, 4)):
                ops.append(r["customer"].access(
                    self._customer_row(cust_warehouse, district), is_write=False
                ))
        ops.append(r["customer"].access(customer, is_write=False))
        ops.append(r["customer"].access(customer, is_write=True))
        ops.append(r["history"].append())
        return ops

    def _txn_order_status(self) -> list[PageAccess]:
        r = self.regions
        warehouse = self._warehouse_row()
        district = self._district_row(warehouse)
        customer = self._customer_row(warehouse, district)
        ops = [r["customer"].access(customer, is_write=False)]
        order = self.rng.randrange(r["orders"].num_rows)
        ops.append(r["orders"].access(order, is_write=False))
        for i in range(self.rng.randint(5, 15)):
            ops.append(r["order_line"].access(order * 10 + i, is_write=False))
        return ops

    def _txn_delivery(self) -> list[PageAccess]:
        r = self.regions
        warehouse = self._warehouse_row()
        ops: list[PageAccess] = []
        for district_index in range(10):
            district = warehouse * 10 + district_index
            new_order = self.rng.randrange(r["new_order"].num_rows)
            ops.append(r["new_order"].access(new_order, is_write=False))
            ops.append(r["new_order"].access(new_order, is_write=True))  # delete
            order = self.rng.randrange(r["orders"].num_rows)
            ops.append(r["orders"].access(order, is_write=False))
            ops.append(r["orders"].access(order, is_write=True))
            for i in range(self.rng.randint(5, 15)):
                ops.append(r["order_line"].access(order * 10 + i, is_write=True))
            customer = self._customer_row(warehouse, district)
            ops.append(r["customer"].access(customer, is_write=True))
        return ops

    def _txn_stock_level(self) -> list[PageAccess]:
        r = self.regions
        warehouse = self._warehouse_row()
        district = self._district_row(warehouse)
        ops = [r["district"].access(district, is_write=False)]
        # Examine the stock of items on the last 20 orders.
        for _ in range(20):
            order_line = self.rng.randrange(r["order_line"].num_rows)
            ops.append(r["order_line"].access(order_line, is_write=False))
            ops.append(r["stock"].access(
                self._stock_row(warehouse, self._item_row()), is_write=False
            ))
        return ops

    def page_popularity(self, samples: int = 3_000) -> list[int]:
        """Pages ranked hottest-first, estimated from a sibling generator.

        ``samples`` counts transactions, each of which expands to many
        page accesses.  Used for warm-start buffer priming.  The
        sibling's seed is fixed, so the ranking depends on the
        database's shape alone and is computed once per shape
        (:func:`_ranked_pages`); the returned list is the caller's own.
        """
        return list(_ranked_pages(self.db_gigabytes, self.scale, samples,
                                  self.num_pages))

    # ------------------------------------------------------------------
    def accesses(self, num_transactions: int) -> Iterator[PageAccess]:
        """Flat stream of page accesses for ``num_transactions`` txns."""
        for _ in range(num_transactions):
            yield from self.next_transaction()


@functools.lru_cache(maxsize=_POPULARITY_SHAPES)
def _ranked_pages(db_gigabytes: float, scale: SimulationScale, samples: int,
                  num_pages: int) -> tuple[int, ...]:
    """The ranking behind :meth:`TpccWorkload.page_popularity`."""
    sibling = TpccWorkload(db_gigabytes, scale, seed=987_654)
    counts: dict[int, int] = {}
    for _ in range(samples):
        for access in sibling.next_transaction():
            counts[access.page_id] = counts.get(access.page_id, 0) + 1
    ranked = sorted(counts, key=counts.get, reverse=True)
    seen = set(ranked)
    ranked.extend(p for p in range(num_pages) if p not in seen)
    return tuple(ranked)
