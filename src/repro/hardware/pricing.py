"""Storage-hierarchy pricing.

§6.6 of the paper compares multi-tier hierarchies by performance/price,
with device prices taken from Table 1 ($/GB).  This module computes the
cost of a hierarchy from per-tier capacities.
"""

from __future__ import annotations

from dataclasses import dataclass

from .specs import DEFAULT_SPECS, TIER_ORDER, DeviceSpec, Tier


@dataclass(frozen=True)
class HierarchyShape:
    """Per-tier capacities, in (paper-scale) gigabytes."""

    dram_gb: float = 0.0
    nvm_gb: float = 0.0
    ssd_gb: float = 0.0

    def __post_init__(self) -> None:
        for name in ("dram_gb", "nvm_gb", "ssd_gb"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def tiers(self) -> tuple[Tier, ...]:
        """Tiers with non-zero capacity, top-down."""
        return tuple(t for t in TIER_ORDER if self.capacity_gb(t) > 0)

    @property
    def label(self) -> str:
        """A short human-readable name like ``DRAM-NVM-SSD``."""
        return "-".join(t.name for t in self.tiers) or "EMPTY"

    def capacity_gb(self, tier: Tier) -> float:
        return {
            Tier.DRAM: self.dram_gb,
            Tier.NVM: self.nvm_gb,
            Tier.SSD: self.ssd_gb,
        }[tier]


def hierarchy_cost(
    shape: HierarchyShape,
    specs: dict[Tier, DeviceSpec] | None = None,
) -> float:
    """Total device cost of ``shape`` in dollars."""
    table = specs or DEFAULT_SPECS
    return sum(shape.capacity_gb(tier) * table[tier].price_per_gb for tier in TIER_ORDER)


def performance_per_price(throughput_ops: float, cost_dollars: float) -> float:
    """Operations per second per dollar (the paper's T/C metric)."""
    if cost_dollars <= 0:
        raise ValueError("hierarchy cost must be positive")
    return throughput_ops / cost_dollars


def equi_cost_nvm_gb(dram_gb: float, specs: dict[Tier, DeviceSpec] | None = None) -> float:
    """NVM capacity purchasable for the price of ``dram_gb`` of DRAM.

    Used by the Fig. 5 experiment to build equi-cost DRAM-SSD and NVM-SSD
    hierarchies (the paper's 140 GB DRAM vs 340 GB NVM configurations have
    roughly this ratio).
    """
    table = specs or DEFAULT_SPECS
    return dram_gb * table[Tier.DRAM].price_per_gb / table[Tier.NVM].price_per_gb
