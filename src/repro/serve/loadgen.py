"""Seeded open-loop load generation for the serving plane.

A load schedule is the full client fleet's traffic, materialised up
front: every request's virtual arrival time, tenant, and operation.
Generating it ahead of execution is what makes serving measurements
reproducible — the schedule is a pure function of a
:class:`LoadSpec` (tenant profiles reuse
:class:`~repro.workloads.tenancy.TenantSpec`), so the ``serve-bench``
SLO report is byte-identical across repeated runs: the merge order is
a deterministic sort.

Arrival model: each tenant is an independent Poisson process whose rate
is its arrival-weight share of the aggregate ``rate_ops_per_s``
(interarrivals drawn ``expovariate`` from a per-tenant seeded RNG); its
op stream is :func:`~repro.workloads.tenancy.tenant_stream`, the one
the multi-tenant workload interleaver runs.  Per-tenant streams merge by
``(arrival time, tenant, index)`` — a total order no tie can disturb.

The same schedule can also drive a **live** server over real sockets
(:func:`drive_server`): one asyncio client per tenant replays its slice
of the schedule as fast as the server admits it, collecting per-request
outcomes for a client-side SLO view.  That path is for smoke and chaos
tests — wall-clock admission makes it deliberately non-deterministic.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass

from ..hardware.specs import DEFAULT_SCALE
from ..workloads.tenancy import TenantSpec, _stride_for, tenant_stream
from . import protocol
from .slo import LatencySample, build_slo_report

__all__ = [
    "Arrival",
    "LoadSchedule",
    "LoadSpec",
    "build_schedule",
    "drive_server",
]


@dataclass(frozen=True)
class Arrival:
    """One scheduled request of the open-loop fleet."""

    at_ns: float
    tenant_id: int
    tenant: str
    kind: str  # "read" | "write"
    page_id: int
    offset: int
    nbytes: int
    think_ns: float = 0.0


@dataclass(frozen=True)
class LoadSpec:
    """The client fleet: tenant profiles, volume, and aggregate rate."""

    tenants: tuple[TenantSpec, ...]
    total_ops: int = 10_000
    rate_ops_per_s: float = 50_000.0
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("a load spec needs at least one tenant")
        if self.total_ops < 1:
            raise ValueError("total_ops must be >= 1")
        if self.rate_ops_per_s <= 0:
            raise ValueError("rate_ops_per_s must be positive")


@dataclass(frozen=True)
class LoadSchedule:
    """A materialised schedule plus the page layout it assumes."""

    arrivals: tuple[Arrival, ...]
    page_stride: int
    #: Pages per tenant range (index-aligned with the spec's tenants).
    tenant_pages: tuple[int, ...]

    def initial_page_ids(self):
        """Every page the schedule can touch, tenant by tenant."""
        for tenant_id, pages in enumerate(self.tenant_pages):
            base = tenant_id * self.page_stride
            yield from range(base, base + pages)


def _tenant_arrivals(tenant: TenantSpec, tenant_id: int, count: int,
                     rate_ops_per_s: float, seed: int) -> tuple[int, list]:
    """One tenant's page count and arrival stream (tenant-local pages).

    The arrival RNG and the op stream are seeded independently of every
    other tenant, so the output depends on this tenant alone.
    """
    rng = random.Random(f"{seed}:{tenant_id}:arrivals")
    stream = tenant_stream(tenant, DEFAULT_SCALE)
    rate_per_ns = rate_ops_per_s / 1e9
    arrivals = []
    at_ns = 0.0
    for _ in range(count):
        at_ns += rng.expovariate(rate_per_ns)
        page, offset, nbytes, is_write = stream.next()
        arrivals.append((
            at_ns, "write" if is_write else "read", page, offset, nbytes,
        ))
    return stream.num_pages, arrivals


def build_schedule(spec: LoadSpec) -> LoadSchedule:
    """Materialise the fleet's schedule.

    Each tenant draws ``total_ops * weight_share`` arrivals at
    ``rate_ops_per_s * weight_share``; the merged order is the sort by
    ``(arrival time, tenant, index)``.
    """
    total_weight = sum(tenant.weight for tenant in spec.tenants)
    generated = []
    for tenant_id, tenant in enumerate(spec.tenants):
        share = tenant.weight / total_weight
        generated.append(_tenant_arrivals(
            tenant, tenant_id, max(1, round(spec.total_ops * share)),
            spec.rate_ops_per_s * share, spec.seed))

    stride = _stride_for(max(pages for pages, _ in generated))
    merged: list[tuple[float, int, int, Arrival]] = []
    for tenant_id, (tenant, (_, arrivals)) in enumerate(
        zip(spec.tenants, generated)
    ):
        base = tenant_id * stride
        for index, (at_ns, kind, page, offset, nbytes) in enumerate(
            arrivals
        ):
            merged.append((at_ns, tenant_id, index, Arrival(
                at_ns=at_ns,
                tenant_id=tenant_id,
                tenant=tenant.name,
                kind=kind,
                page_id=base + page,
                offset=offset,
                nbytes=nbytes,
                think_ns=tenant.think_time_ns,
            )))
    merged.sort(key=lambda entry: entry[:3])
    return LoadSchedule(
        arrivals=tuple(entry[3] for entry in merged),
        page_stride=stride,
        tenant_pages=tuple(pages for pages, _ in generated),
    )


# ----------------------------------------------------------------------
# Live driving (smoke and chaos tests; wall-clock, not deterministic)
# ----------------------------------------------------------------------
async def _drive_tenant(host: str, port: int, tenant_id: int,
                        arrivals: list[Arrival], page_stride: int,
                        samples: list, sheds: list, errors: list) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        seq = 0
        await protocol.write_frame(writer, {
            "op": "hello", "seq": seq, "tenant": tenant_id,
        })
        hello = await protocol.read_frame(reader)
        if hello is None or not hello.get("ok"):
            errors.append((tenant_id, "hello", "handshake failed"))
            return
        # The server owns a tenant's pages by its own stride (a tenant
        # is its page range there): move the schedule's tenant-local
        # pages from the schedule's range into the server's.
        shift = tenant_id * (hello["server"]["page_stride"] - page_stride)
        for arrival in arrivals:
            seq += 1
            await protocol.write_frame(writer, {
                "op": arrival.kind,
                "seq": seq,
                "page_id": arrival.page_id + shift,
                "offset": arrival.offset,
                "nbytes": arrival.nbytes,
            })
            response = await protocol.read_frame(reader)
            if response is None:
                errors.append((tenant_id, arrival.kind, "connection lost"))
                return
            if response.get("ok"):
                samples.append(LatencySample(
                    tenant=arrival.tenant,
                    kind=arrival.kind,
                    latency_ns=float(response.get("latency_ns", 0.0)),
                ))
            else:
                error = response.get("error", {})
                kind = error.get("kind", "internal")
                if kind in (protocol.ERR_OVERLOADED,
                            protocol.ERR_SHUTTING_DOWN):
                    sheds.append((arrival.tenant, arrival.kind, kind))
                else:
                    errors.append((tenant_id, arrival.kind,
                                   error.get("detail", kind)))
        seq += 1
        await protocol.write_frame(writer, {"op": "goodbye", "seq": seq})
        await protocol.read_frame(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:
            pass


async def drive_server(host: str, port: int, schedule: LoadSchedule,
                       *, config: dict | None = None) -> dict:
    """Replay a schedule against a live server, one client per tenant.

    Each client holds one session and issues its tenant's requests
    back-to-back (closed-loop per client; the aggregate fleet is still
    concurrent), each page moved into the tenant's range at the
    server's ``page_stride``.  Returns the client-side SLO report, with an
    ``"errors"`` list appended for anything that was neither served nor
    cleanly shed.
    """
    by_tenant: dict[int, list[Arrival]] = {}
    for arrival in schedule.arrivals:
        by_tenant.setdefault(arrival.tenant_id, []).append(arrival)
    samples: list = []
    sheds: list = []
    errors: list = []
    started = time.monotonic()
    await asyncio.gather(*(
        _drive_tenant(host, port, tenant_id, arrivals, schedule.page_stride,
                      samples, sheds, errors)
        for tenant_id, arrivals in sorted(by_tenant.items())
    ))
    makespan_s = time.monotonic() - started
    report = build_slo_report(
        samples, sheds=sheds, makespan_s=makespan_s, config=config,
    )
    report["errors"] = [
        {"tenant": tenant, "op": op, "detail": detail}
        for tenant, op, detail in errors
    ]
    return report
