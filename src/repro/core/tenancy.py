"""First-class tenant identity for the buffer manager core.

ROADMAP item 2's "millions of users" scenario shares one DRAM–NVM–SSD
hierarchy between N tenants with distinct mixes and SLOs.  This module
is the core-side half of that story:

* :class:`TenancyConfig` — a frozen, picklable description of the
  tenant population: how page ids map to tenants (fixed strides), each
  tenant's buffer share and the quota mode,
* :class:`TenancyControl` — the runtime object the buffer manager wires
  into the :class:`~repro.core.migration.MigrationEngine` and
  :class:`~repro.core.space_manager.SpaceManager`: the one page→tenant
  rule (:meth:`TenancyControl.tenant_of`) and per-tier frame-quota
  arithmetic.  The per-tenant admission queues are the manager's own
  (``BufferManager.admission_queues``, indexed by tenant).

A tenant is its page range: every tenant decision — in the core and in
the observers that label series or spans by tenant — is made from the
page id alone, so no caller passes a tenant down the access path.

Quota modes:

* ``NONE`` — tenants share every pool freely (accounting only),
* ``HARD`` — a tenant may never hold more frames on a tier than its
  share allows; reaching the quota evicts one of the tenant's *own*
  pages even while the pool has free frames,
* ``SOFT`` — shares are minimum guarantees: victim selection prefers
  tenants holding more than their share, so a tenant under its
  min-share keeps its pages while the pool is contended, but unused
  capacity is lent out freely.

The default path stays byte-identical: a buffer manager built without a
``TenancyConfig`` has ``tenancy=None`` everywhere and executes exactly
the pre-tenancy code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..hardware.specs import Tier
from ..pages.page import PageId

__all__ = [
    "QuotaMode",
    "TenancyConfig",
    "TenancyControl",
]


class QuotaMode(enum.Enum):
    """How per-tenant buffer shares are enforced."""

    #: Accounting only — no enforcement (the single-tenant default).
    NONE = "none"
    #: Hard partition: a tenant can never exceed its share on a tier.
    HARD = "hard"
    #: Soft min-share: victims are preferentially taken from tenants
    #: holding more than their share; unused capacity is lent out.
    SOFT = "soft"


@dataclass(frozen=True)
class TenancyConfig:
    """Static multi-tenant layout and quota policy (picklable).

    ``page_stride`` partitions the page-id space into fixed-size tenant
    ranges: tenant ``i`` owns pages ``[i * stride, (i + 1) * stride)``.
    Strides are sized by the workload layer with growth headroom, so
    TPC-C's append-only regions never cross into a neighbour's range.
    """

    num_tenants: int = 1
    #: Pages per tenant range (``page_id // page_stride`` is the tenant).
    page_stride: int = 1 << 32
    quota_mode: QuotaMode = QuotaMode.NONE
    #: Per-tenant buffer-share fractions (one per tenant, summing to
    #: <= 1.0); empty means equal shares.
    shares: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.num_tenants < 1:
            raise ValueError("num_tenants must be >= 1")
        if self.page_stride < 1:
            raise ValueError("page_stride must be >= 1")
        if self.shares and len(self.shares) != self.num_tenants:
            raise ValueError("shares must have one entry per tenant")
        if self.shares:
            if any(share <= 0 for share in self.shares):
                raise ValueError("tenant shares must be positive")
            if sum(self.shares) > 1.0 + 1e-9:
                raise ValueError("tenant shares must sum to <= 1.0")

    def share_of(self, tenant_id: int) -> float:
        if self.shares:
            return self.shares[tenant_id]
        return 1.0 / self.num_tenants


@dataclass
class TenancyControl:
    """Runtime tenant machinery wired into the core components: the
    page→tenant layout and the quotas, built once per buffer manager
    from a :class:`TenancyConfig`."""

    config: TenancyConfig
    #: Per-tier, per-tenant frame quotas, resolved lazily from pool
    #: capacities on first use.
    _quota_cache: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Per-tenant resolution
    # ------------------------------------------------------------------
    def tenant_of(self, page_id: PageId) -> int:
        """The tenant owning ``page_id``: its stride range, clamped so
        pages past the last range belong to the last tenant."""
        config = self.config
        tenant = page_id // config.page_stride
        if tenant >= config.num_tenants:
            return config.num_tenants - 1
        return tenant

    # ------------------------------------------------------------------
    # Quota arithmetic
    # ------------------------------------------------------------------
    @property
    def enforcing(self) -> bool:
        """True when victim selection must consult quotas at all."""
        return (self.config.quota_mode is not QuotaMode.NONE
                and self.config.num_tenants > 1)

    def quota_frames(self, tier: Tier, max_entries: int,
                     tenant_id: int) -> int:
        """Frames the tenant's share allows on a tier (at least 1)."""
        key = (tier, max_entries, tenant_id)
        cached = self._quota_cache.get(key)
        if cached is None:
            cached = max(1, int(max_entries * self.config.share_of(tenant_id)))
            self._quota_cache[key] = cached
        return cached

    def usage_by_tenant(self, descriptors) -> dict[int, int]:
        """Frames held per tenant, from one pool's descriptor list."""
        tenant_of = self.tenant_of
        usage: dict[int, int] = {}
        for descriptor in descriptors:
            tenant = tenant_of(descriptor.page_id)
            usage[tenant] = usage.get(tenant, 0) + 1
        return usage
