"""Fig. 13 — Impact of data migration policies on NVM device lifetime (§6.5).

Compares the NVM media write volume of Spitfire-Lazy against HyMem on
the YCSB mixes, with fine-grained loading enabled in both (as the paper
does for fairness).

Expected shape: Spitfire-Lazy writes *more* to NVM than HyMem (the
paper reports 1.05-1.4x) — it eagerly installs pages in NVM and
bypasses DRAM to maximise runtime performance, trading some device
lifetime; HyMem's queue funnels fewer pages into NVM.
"""

from __future__ import annotations

from ...core.buffer_manager import BufferManagerConfig
from ...core.policy import HYMEM_POLICY, SPITFIRE_LAZY
from ...pages.granularity import OPTANE_LOADING_UNIT
from ..reporting import ExperimentResult
from .common import HYMEM_DB_GB, HYMEM_SHAPE, Cell, effort

WORKLOADS = ("YCSB-RO", "YCSB-BA", "YCSB-WH")


#: Key name -> (label prefix, policy, buffer-manager config).
CONFIGS = {
    "lazy": ("Spitfire-Lazy", SPITFIRE_LAZY,
             BufferManagerConfig(fine_grained=True,
                                 loading_unit=OPTANE_LOADING_UNIT)),
    "hymem": ("HyMem", HYMEM_POLICY,
              BufferManagerConfig(fine_grained=True, mini_pages=False,
                                  loading_unit=OPTANE_LOADING_UNIT)),
}


def cells(quick: bool) -> dict:
    return {
        (name, workload): Cell.ycsb(f"{label}/{workload}", HYMEM_SHAPE,
                                    policy, workload, HYMEM_DB_GB,
                                    effort=effort(quick), bm_config=config)
        for workload in WORKLOADS
        for name, (label, policy, config) in CONFIGS.items()
    }


def reduce(quick: bool, runs: dict) -> ExperimentResult:
    result = ExperimentResult(
        "fig13", "Impact of Migration Policies on NVM Lifetime (write volume)"
    )
    result.metadata.update(
        dram_gb=HYMEM_SHAPE.dram_gb, nvm_gb=HYMEM_SHAPE.nvm_gb,
        db_gb=HYMEM_DB_GB, measure_ops=effort(quick).measure_ops,
    )
    lazy_series = result.new_series("Spitfire-Lazy")
    hymem_series = result.new_series("HyMem")
    for workload in WORKLOADS:
        lazy_series.add(workload, runs[("lazy", workload)].nvm_write_gb)
        hymem_series.add(workload, runs[("hymem", workload)].nvm_write_gb)
    for workload in WORKLOADS:
        hymem_gb = max(hymem_series.y_at(workload), 1e-9)
        result.note(
            f"{workload}: Spitfire-Lazy / HyMem NVM writes = "
            f"{lazy_series.y_at(workload) / hymem_gb:.2f}x "
            "(paper: 1.05-1.4x)"
        )
    return result
