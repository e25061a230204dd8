"""SLO reporting: byte-deterministic latency/shed/goodput digests.

One report shape serves three producers — the virtual-time
``serve-bench`` simulation, the live server's ``--slo-out`` shutdown
dump, and the load generator's client-side view — so the overload
experiment, the CI smoke artifact, and the docs all read the same
schema (documented in ``docs/SERVING.md``).

Determinism rules:

* quantiles are **exact order statistics** over the recorded samples
  (index ``ceil(q * n) - 1`` of the sorted list), not bucketed
  estimates — two runs that admitted the same ops report the same ns,
* floats are rounded to 3 decimals at the edge of the report, ints stay
  ints, and every dict renders with sorted keys — so
  ``json.dumps(report, indent=2, sort_keys=True)`` is byte-stable
  across runs and platforms.
"""

from __future__ import annotations

import json
import math

__all__ = [
    "LatencySample",
    "build_slo_report",
    "exact_quantile",
    "render_slo_report",
    "slo_report_json",
]

#: The tail the report quotes, hardest last.
QUANTILES = (("p50_ns", 0.50), ("p99_ns", 0.99), ("p999_ns", 0.999))


class LatencySample:
    """One admitted request's outcome (tenant, kind, latency split)."""

    __slots__ = ("tenant", "kind", "latency_ns", "wait_ns", "service_ns")

    def __init__(self, tenant: str, kind: str, latency_ns: float,
                 wait_ns: float = 0.0, service_ns: float | None = None)\
            -> None:
        self.tenant = tenant
        self.kind = kind
        self.latency_ns = latency_ns
        self.wait_ns = wait_ns
        self.service_ns = (service_ns if service_ns is not None
                           else latency_ns - wait_ns)


def exact_quantile(sorted_values: list[float], q: float) -> float:
    """The exact ``q``-quantile of an ascending-sorted sample list."""
    if not sorted_values:
        return 0.0
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[index]


def _latency_digest(latencies: list[float]) -> dict:
    """Counts plus the quantile ladder over one sample population."""
    ordered = sorted(latencies)
    digest: dict = {"count": len(ordered)}
    for name, q in QUANTILES:
        digest[name] = round(exact_quantile(ordered, q), 3)
    digest["mean_ns"] = (
        round(sum(ordered) / len(ordered), 3) if ordered else 0.0
    )
    digest["max_ns"] = round(ordered[-1], 3) if ordered else 0.0
    return digest


def build_slo_report(
    samples: list[LatencySample],
    *,
    sheds: list[tuple[str, str, str]] = (),
    makespan_s: float = 0.0,
    config: dict | None = None,
) -> dict:
    """Fold samples and sheds into the canonical SLO report.

    ``sheds`` holds ``(tenant, kind, reason)`` triples for refused
    requests.  ``makespan_s`` is the (virtual or wall) span the admitted
    work covered — goodput is admitted ops over that span.  ``config``
    is an arbitrary JSON-able digest of how the run was produced (seed,
    rates, admission knobs) so a report is self-describing.
    """
    per_tenant: dict[str, dict[str, list[float]]] = {}
    wait_all: list[float] = []
    latency_all: list[float] = []
    for sample in samples:
        kinds = per_tenant.setdefault(sample.tenant, {})
        kinds.setdefault(sample.kind, []).append(sample.latency_ns)
        wait_all.append(sample.wait_ns)
        latency_all.append(sample.latency_ns)

    shed_by_tenant: dict[str, dict[str, int]] = {}
    for tenant, _kind, reason in sheds:
        reasons = shed_by_tenant.setdefault(tenant, {})
        reasons[reason] = reasons.get(reason, 0) + 1

    tenants: dict[str, dict] = {}
    for tenant in sorted(set(per_tenant) | set(shed_by_tenant)):
        kinds = per_tenant.get(tenant, {})
        admitted = sum(len(v) for v in kinds.values())
        shed_reasons = dict(sorted(shed_by_tenant.get(tenant, {}).items()))
        shed = sum(shed_reasons.values())
        arrivals = admitted + shed
        tenants[tenant] = {
            "admitted": admitted,
            "arrivals": arrivals,
            "ops": {
                kind: _latency_digest(kinds[kind])
                for kind in sorted(kinds)
            },
            "shed": shed,
            "shed_by_reason": shed_reasons,
            "shed_rate": round(shed / arrivals, 6) if arrivals else 0.0,
        }

    admitted = len(samples)
    shed = len(sheds)
    arrivals = admitted + shed
    totals = {
        "admitted": admitted,
        "arrivals": arrivals,
        "goodput_ops_per_s": (
            round(admitted / makespan_s, 3) if makespan_s > 0 else 0.0
        ),
        "latency": _latency_digest(latency_all),
        "makespan_s": round(makespan_s, 6),
        "queue_wait": _latency_digest(wait_all),
        "shed": shed,
        "shed_rate": round(shed / arrivals, 6) if arrivals else 0.0,
    }
    return {
        "config": config or {},
        "tenants": tenants,
        "totals": totals,
    }


def slo_report_json(report: dict) -> str:
    """The canonical byte-stable rendering (what files and tests pin)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_slo_report(report: dict) -> str:
    """A human-readable table of the report (stdout companion)."""
    totals = report["totals"]
    lines = [
        "SLO report",
        f"  arrivals={totals['arrivals']}  admitted={totals['admitted']}  "
        f"shed={totals['shed']} ({totals['shed_rate']:.1%})  "
        f"goodput={totals['goodput_ops_per_s']:,.0f} ops/s  "
        f"makespan={totals['makespan_s']:.3f}s",
        f"  {'tenant':<14} {'op':<6} {'count':>8} {'p50':>12} "
        f"{'p99':>12} {'p999':>12} {'shed':>6}",
    ]
    for tenant, record in report["tenants"].items():
        first = True
        for kind, digest in record["ops"].items():
            shed_cell = str(record["shed"]) if first else ""
            lines.append(
                f"  {tenant if first else '':<14} {kind:<6} "
                f"{digest['count']:>8} {digest['p50_ns']:>10,.0f}ns "
                f"{digest['p99_ns']:>10,.0f}ns {digest['p999_ns']:>10,.0f}ns "
                f"{shed_cell:>6}"
            )
            first = False
        if not record["ops"]:
            lines.append(
                f"  {tenant:<14} {'-':<6} {0:>8} {'-':>12} {'-':>12} "
                f"{'-':>12} {record['shed']:>6}"
            )
    return "\n".join(lines)
