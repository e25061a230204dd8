"""Fig. 12 / Table 3 — Ablation study of HyMem and Spitfire (§6.5).

For each migration policy of Table 3 (HyMem, Spitfire-Eager,
Spitfire-Lazy) the two HyMem layout optimizations are added
incrementally: NONE → +fine-grained loading (256 B) → +mini pages, on
YCSB-RO and TPC-C over the §6.5 hierarchy.

Expected shape: the optimizations meaningfully help the eager policies
(the paper: +18-37% on YCSB-RO) but have minuscule impact on
Spitfire-Lazy, and even the *baseline* lazy configuration beats the
fully optimized eager ones — the migration policy dominates the layout
optimizations.
"""

from __future__ import annotations

from ...core.buffer_manager import BufferManagerConfig
from ...core.policy import HYMEM_POLICY, SPITFIRE_EAGER, SPITFIRE_LAZY
from ...pages.granularity import OPTANE_LOADING_UNIT
from ..reporting import ExperimentResult
from .common import HYMEM_DB_GB, HYMEM_SHAPE, Cell, CellBatch, effort

#: Table 3's rows; the HyMem row is what ``core.hymem.make_hymem`` builds.
POLICIES = {"HyMem": HYMEM_POLICY, "Spf-Eager": SPITFIRE_EAGER,
            "Spf-Lazy": SPITFIRE_LAZY}
VARIANTS = ("none", "+fine-grained", "+mini-page")
WORKLOADS = ("YCSB-RO", "TPC-C")
WORKERS = 16


def run(quick: bool = True, jobs: int = 1) -> ExperimentResult:
    eff = effort(quick)
    result = ExperimentResult(
        "fig12", "Ablation of HyMem's Optimizations Across Policies"
    )
    result.metadata.update(
        dram_gb=HYMEM_SHAPE.dram_gb, nvm_gb=HYMEM_SHAPE.nvm_gb,
        db_gb=HYMEM_DB_GB, loading_unit=256, workers=WORKERS,
    )
    batch = CellBatch()
    for workload in WORKLOADS:
        for policy_name, policy in POLICIES.items():
            for variant in VARIANTS:
                label = f"{workload}/{policy_name}/{variant}"
                common = dict(
                    effort=eff, workers=WORKERS, extra_worker_counts=(),
                    bm_config=BufferManagerConfig(
                        fine_grained=variant != "none",
                        mini_pages=variant == "+mini-page",
                        loading_unit=OPTANE_LOADING_UNIT,
                    ),
                )
                if workload == "TPC-C":
                    cell = Cell.tpcc(label, HYMEM_SHAPE, policy, HYMEM_DB_GB,
                                     **common)
                else:
                    cell = Cell.ycsb(label, HYMEM_SHAPE, policy, workload,
                                     HYMEM_DB_GB, **common)
                batch.add((workload, policy_name, variant), cell)
    runs = batch.run(jobs)
    for workload in WORKLOADS:
        for policy_name in POLICIES:
            series = result.new_series(f"{workload}/{policy_name}")
            for variant in VARIANTS:
                series.add(variant,
                           runs[(workload, policy_name, variant)].throughput)
    for workload in WORKLOADS:
        lazy_base = result.series[f"{workload}/Spf-Lazy"].y_at("none")
        best_other = max(
            result.series[f"{workload}/{p}"].y_at("+mini-page")
            for p in ("HyMem", "Spf-Eager")
        )
        result.note(
            f"{workload}: baseline Spf-Lazy / best fully-optimized eager = "
            f"{lazy_base / best_other:.2f}x (policy choice dominates layouts)"
        )
        eager = result.series[f"{workload}/Spf-Eager"]
        result.note(
            f"{workload}: fine-grained gain on Spf-Eager = "
            f"{eager.y_at('+fine-grained') / eager.y_at('none'):.2f}x"
        )
    return result
