"""Multi-tenant workload specs and the deterministic stream interleaver.

The workload-side half of the multi-tenant story (ROADMAP item 2):

* :class:`TenantSpec` — one tenant's traffic profile: a YCSB mix or the
  TPC-C generator, zipf skew, database size, arrival weight and
  optional think time,
* :func:`tenant_stream` — one tenant's op stream, sized from its spec
  (shared with the serving plane's load generator),
* :class:`MultiTenantWorkload` — lays the tenants' databases out in
  disjoint page ranges (one uniform stride, sized with growth headroom
  so TPC-C's append-only regions never cross into a neighbour's range)
  and merges the N per-tenant op streams into one totally-ordered
  stream of :class:`TenantAccess` records via a seeded weighted
  interleaver.

Determinism is the contract everything downstream leans on: the same
specs and seed produce the same interleaved stream op for op, because
the interleaver draws tenants from its own ``random.Random`` and each
tenant's generator draws from its own seeded RNGs — no draw order
depends on wall clock, hashing, or thread scheduling.  Think time is a
spec-level annotation the bench harness charges as CPU service time
(the simulation has no idle waiting, so "thinking" models a slower
arrival rate, not a sleeping client).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .tpcc import PageAccess, TpccWorkload
from .ycsb import (
    COLUMN_SIZE,
    MIXES,
    TUPLE_SIZE,
    TUPLES_PER_PAGE,
    YcsbWorkload,
)

__all__ = [
    "MultiTenantWorkload",
    "TenantAccess",
    "TenantSpec",
    "tenant_stream",
]


@dataclass(frozen=True)
class TenantAccess:
    """One tenant-tagged page access of the merged stream."""

    tenant_id: int
    page_id: int
    offset: int
    nbytes: int
    is_write: bool


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic profile (frozen and picklable).

    ``kind`` selects the generator: ``"ycsb"`` uses ``mix``/``skew``
    over a table sized by ``db_gigabytes``; ``"tpcc"`` runs the TPC-C
    generator at that database size (``mix``/``skew`` are ignored).
    ``weight`` is the tenant's arrival share in the interleaved stream;
    ``think_time_ns`` is extra CPU service charged after each op by the
    harness.
    """

    name: str
    kind: str = "ycsb"
    #: YCSB mix name ("YCSB-RO" / "YCSB-BA" / "YCSB-WH").
    mix: str = "YCSB-BA"
    skew: float = 0.3
    db_gigabytes: float = 1.0
    weight: float = 1.0
    think_time_ns: float = 0.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("ycsb", "tpcc"):
            raise ValueError(f"unknown tenant workload kind {self.kind!r}")
        if self.kind == "ycsb" and self.mix not in MIXES:
            raise ValueError(f"unknown YCSB mix {self.mix!r}")
        if self.kind == "ycsb" and not 0.0 <= self.skew < 1.0:
            raise ValueError(f"skew must be in [0, 1), got {self.skew!r}")
        if self.weight <= 0:
            raise ValueError("tenant weight must be positive")
        if self.db_gigabytes <= 0:
            raise ValueError("db_gigabytes must be positive")
        if self.think_time_ns < 0:
            raise ValueError("think_time_ns must be >= 0")


def _stride_for(max_pages: int) -> int:
    """Tenant page stride: the next power of two above twice the largest
    tenant's page count — 2× headroom for TPC-C's growing regions, and a
    power of two so the page→tenant division stays cheap."""
    stride = 1
    target = max(2, 2 * max_pages)
    while stride < target:
        stride <<= 1
    return stride


class _YcsbStream:
    """Adapter: one YCSB tenant as an endless tenant-access stream."""

    def __init__(self, spec: TenantSpec, num_tuples: int) -> None:
        self.workload = YcsbWorkload(
            num_tuples, mix=MIXES[spec.mix], skew=spec.skew, seed=spec.seed
        )
        self.num_pages = self.workload.num_pages

    def next(self) -> tuple[int, int, int, bool]:
        op = self.workload.next_op()
        page = self.workload.page_of(op.key)
        offset = self.workload.offset_of(op.key, op.column)
        if op.is_write:
            return page, offset, COLUMN_SIZE, True
        return page, offset, TUPLE_SIZE, False

    def page_popularity(self) -> list[int]:
        return self.workload.page_popularity()


class _TpccStream:
    """Adapter: one TPC-C tenant, unrolled one page access at a time."""

    def __init__(self, spec: TenantSpec, scale) -> None:
        self.workload = TpccWorkload(spec.db_gigabytes, scale, seed=spec.seed)
        self.num_pages = self.workload.num_pages
        self._pending: Iterator[PageAccess] = iter(())

    def next(self) -> tuple[int, int, int, bool]:
        access = next(self._pending, None)
        while access is None:
            self._pending = iter(self.workload.next_transaction())
            access = next(self._pending, None)
        return access.page_id, access.offset, access.nbytes, access.is_write

    def page_popularity(self) -> list[int]:
        return self.workload.page_popularity()


def tenant_stream(spec: TenantSpec, scale):
    """One tenant's endless op stream over its tenant-local pages.

    TPC-C runs its generator at the spec's database size; YCSB gets the
    single-stream cells' sizing rule: one table filling the tenant's
    database allotment.
    """
    if spec.kind == "tpcc":
        return _TpccStream(spec, scale)
    pages = max(1, scale.pages(spec.db_gigabytes))
    return _YcsbStream(spec, pages * TUPLES_PER_PAGE)


class MultiTenantWorkload:
    """N tenant streams merged into one deterministic total order.

    Tenant ``i``'s pages live at ``[i * page_stride, i * page_stride +
    num_pages_i)``; the shared stride (with headroom) is what
    :class:`~repro.core.tenancy.TenancyConfig` uses for O(1) page→tenant
    resolution.  Each :meth:`next_access` first draws the serving tenant
    from the interleaver RNG (weights = arrival shares), then advances
    only that tenant's generator — so one tenant's draw history is
    independent of the others' traffic.
    """

    def __init__(self, specs, scale, seed: int = 1) -> None:
        specs = tuple(specs)
        if not specs:
            raise ValueError("at least one tenant spec is required")
        self.specs = specs
        self.scale = scale
        self.seed = seed
        self.rng = random.Random(seed)
        self._streams = [tenant_stream(spec, scale) for spec in specs]
        self.page_stride = _stride_for(
            max(stream.num_pages for stream in self._streams)
        )
        total = sum(spec.weight for spec in specs)
        self._cum_weights = []
        acc = 0.0
        for spec in specs:
            acc += spec.weight / total
            self._cum_weights.append(acc)
        self._cum_weights[-1] = 1.0  # guard against float drift

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def num_tenants(self) -> int:
        return len(self.specs)

    def base_page(self, tenant_id: int) -> int:
        return tenant_id * self.page_stride

    def initial_page_ids(self) -> Iterator[int]:
        """Global ids of every page to pre-allocate, tenant by tenant."""
        for tenant_id, stream in enumerate(self._streams):
            base = self.base_page(tenant_id)
            for page in range(stream.num_pages):
                yield base + page

    # ------------------------------------------------------------------
    # The interleaved stream
    # ------------------------------------------------------------------
    def _draw_tenant(self) -> int:
        point = self.rng.random()
        for tenant_id, bound in enumerate(self._cum_weights):
            if point < bound:
                return tenant_id
        return len(self._cum_weights) - 1  # pragma: no cover - guard above

    def next_access(self) -> TenantAccess:
        tenant_id = self._draw_tenant()
        page, offset, nbytes, is_write = self._streams[tenant_id].next()
        return TenantAccess(
            tenant_id=tenant_id,
            page_id=self.base_page(tenant_id) + page,
            offset=offset,
            nbytes=nbytes,
            is_write=is_write,
        )

    def accesses(self, count: int) -> Iterator[TenantAccess]:
        for _ in range(count):
            yield self.next_access()

    # ------------------------------------------------------------------
    # Priming support
    # ------------------------------------------------------------------
    def page_popularity(self) -> list[int]:
        """Global page ids ranked hottest-first across all tenants.

        Per-tenant rankings merge by *virtual time*: the ``k``-th page
        of a tenant with arrival weight ``w`` lands at ``(k + 1) / w``,
        so heavier tenants place proportionally more of their hot pages
        ahead.  Tenant index breaks ties, keeping the merge a pure
        function of the specs.
        """
        merged: list[tuple[float, int, int]] = []
        for tenant_id, (spec, stream) in enumerate(
            zip(self.specs, self._streams)
        ):
            base = self.base_page(tenant_id)
            for rank, page in enumerate(stream.page_popularity()):
                merged.append(((rank + 1) / spec.weight, tenant_id, base + page))
        merged.sort()
        return [page for _, _, page in merged]
