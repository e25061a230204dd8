"""Multi-tenant noisy-neighbor isolation (beyond the paper's figures).

ROADMAP item 2's "cloud deployment" scenario: one DRAM–NVM–SSD
hierarchy shared by an OLTP tenant (small, skewed, latency-sensitive)
and a scan-heavy tenant (large, uniform, bandwidth-hungry).  Without
quotas the scan tenant's uniform reads flush the OLTP tenant's hot set
out of DRAM; with per-tenant frame quotas (hard partition or soft
min-share) the OLTP tail latency should stay where it was when the
tenant ran alone.

Four scenarios, same hierarchy and interleaver seed throughout:

* ``alone``  — the OLTP tenant by itself (the baseline tail),
* ``shared`` — OLTP + scan, no quotas (``QuotaMode.NONE``),
* ``hard``   — OLTP + scan, hard 50/50 partition,
* ``soft``   — OLTP + scan, soft 50/50 min-shares.

Expected shape: OLTP p99 under ``hard``/``soft`` within 20% of
``alone``, while ``shared`` degrades it by a bucket or more; ``soft``
additionally lends the OLTP tenant's unused frames to the scan tenant
(its mean latency lands below the hard partition's).
"""

from __future__ import annotations

from ...core.policy import SPITFIRE_LAZY
from ...hardware.pricing import HierarchyShape
from ...workloads.tenancy import TenantSpec
from ..reporting import ExperimentResult
from .common import Cell, effort

#: 2 GB DRAM / 8 GB NVM — small enough that the scan tenant's uniform
#: working set cannot fit and must churn whatever tier it is allowed to.
SHAPE = HierarchyShape(dram_gb=2.0, nvm_gb=8.0, ssd_gb=128.0)

#: Latency-sensitive tenant: skewed point ops over a database sized
#: comfortably *under* its 50% DRAM share, so an enforced quota keeps
#: the whole hot set resident.
OLTP = TenantSpec(name="oltp", mix="YCSB-BA", skew=0.9,
                  db_gigabytes=0.5, seed=7)

#: Noisy neighbor: uniform read-only ops over a database 16x DRAM, at
#: twice the OLTP tenant's arrival rate.
SCAN = TenantSpec(name="scan", mix="YCSB-RO", skew=0.0,
                  db_gigabytes=32.0, weight=2.0, seed=11)

#: Scenario name -> (tenant population, quota mode).
SCENARIOS = (
    ("alone", (OLTP,), "none"),
    ("shared", (OLTP, SCAN), "none"),
    ("hard", (OLTP, SCAN), "hard"),
    ("soft", (OLTP, SCAN), "soft"),
)

SHARES = (0.5, 0.5)


def cells(quick: bool) -> dict:
    return {
        name: Cell.multi_tenant(
            name, SHAPE, SPITFIRE_LAZY, tenants, quota_mode=quota_mode,
            shares=SHARES if len(tenants) > 1 else (), effort=effort(quick))
        for name, tenants, quota_mode in SCENARIOS
    }


def reduce(quick: bool, runs: dict) -> ExperimentResult:
    result = ExperimentResult(
        "tenants", "Multi-tenant isolation: noisy neighbor vs frame quotas"
    )
    result.metadata.update(
        dram_gb=SHAPE.dram_gb, nvm_gb=SHAPE.nvm_gb,
        oltp_db_gb=OLTP.db_gigabytes, scan_db_gb=SCAN.db_gigabytes,
        scan_weight=SCAN.weight, shares=list(SHARES),
    )
    for metric in ("p50_ns", "p99_ns", "mean_ns"):
        for tenant_id, tenant in ((0, "oltp"), (1, "scan")):
            series = result.new_series(f"{tenant} {metric}")
            for name, tenants, _ in SCENARIOS:
                if tenant_id >= len(tenants):
                    continue
                breakdown = runs[name].tenant_breakdown[tenant_id]
                series.add(name, breakdown[metric])

    oltp_p99 = result.series["oltp p99_ns"]
    baseline = oltp_p99.y_at("alone")
    for name in ("shared", "hard", "soft"):
        degradation = oltp_p99.y_at(name) / baseline - 1.0
        result.note(
            f"OLTP p99 under '{name}': {degradation:+.0%} vs running alone"
        )
    scan_mean = result.series["scan mean_ns"]
    lend = scan_mean.y_at("hard") / scan_mean.y_at("soft") - 1.0
    result.note(
        f"soft min-shares lend unused OLTP frames to the scan tenant: "
        f"scan mean latency {lend:+.0%} under hard vs soft"
    )
    return result
