"""Fig. 15 — Impact of database size (§6.7).

Five configurations, database size swept from 5 GB to 140 GB, on all
four workloads:

* three-tier (20 GB DRAM + 60 GB NVM): Spitfire-Lazy, Spitfire-Eager,
  and HyMem (with its optimizations enabled),
* DRAM-SSD with a 46 GB DRAM buffer,
* NVM-SSD with a 104 GB NVM buffer (both priced like the three-tier).

Expected shape: DRAM-SSD leads while the database is DRAM-cacheable and
falls off a cliff beyond; NVM-SSD starts lower (NVM latency) but keeps
its throughput flat the longest and wins at large sizes (and earlier on
the write-heavy mixes, where it pays no dirty-page flushes);
Spitfire-Lazy is the best three-tier policy essentially everywhere.
"""

from __future__ import annotations

from ...core.buffer_manager import BufferManagerConfig
from ...core.policy import (
    DRAM_SSD_POLICY,
    HYMEM_POLICY,
    NVM_SSD_POLICY,
    SPITFIRE_EAGER,
    SPITFIRE_LAZY,
)
from ...hardware.pricing import HierarchyShape
from ...pages.granularity import OPTANE_LOADING_UNIT
from ..reporting import ExperimentResult
from .common import COARSE_SCALE, Cell, effort

THREE_TIER = HierarchyShape(dram_gb=20.0, nvm_gb=60.0, ssd_gb=200.0)
DRAM_SSD = HierarchyShape(dram_gb=46.0, nvm_gb=0.0, ssd_gb=200.0)
NVM_SSD = HierarchyShape(dram_gb=0.0, nvm_gb=104.0, ssd_gb=200.0)

DB_SIZES_FULL = (5.0, 20.0, 35.0, 50.0, 65.0, 80.0, 95.0, 110.0, 125.0, 140.0)
DB_SIZES_QUICK = (5.0, 35.0, 65.0, 95.0, 140.0)

CONFIGS = ("Spf-Lazy", "Spf-Eager", "HyMem", "DRAM-SSD", "NVM-SSD")
WORKLOADS = ("YCSB-RO", "YCSB-BA", "YCSB-WH", "TPC-C")
WORKERS = 8


#: For fairness the paper enables HyMem's optimizations on the
#: three-tier configurations (Spitfire and HyMem) in this experiment.
_FINE_CONFIG = BufferManagerConfig(fine_grained=True, mini_pages=True,
                                   loading_unit=OPTANE_LOADING_UNIT)
_THREE_TIER_POLICIES = {"Spf-Lazy": SPITFIRE_LAZY, "Spf-Eager": SPITFIRE_EAGER,
                        "HyMem": HYMEM_POLICY}


def _cell(config: str, workload: str, db_gb: float, eff) -> Cell:
    kwargs = dict(effort=eff, scale=COARSE_SCALE)
    if config == "DRAM-SSD":
        shape, policy = DRAM_SSD, DRAM_SSD_POLICY
    elif config == "NVM-SSD":
        shape, policy = NVM_SSD, NVM_SSD_POLICY
    else:
        shape, policy = THREE_TIER, _THREE_TIER_POLICIES[config]
        kwargs["bm_config"] = _FINE_CONFIG
    label = f"{workload}/{config}/{db_gb:g}GB"
    if workload == "TPC-C":
        return Cell.tpcc(label, shape, policy, db_gb, **kwargs)
    return Cell.ycsb(label, shape, policy, workload, db_gb, **kwargs)


def cells(quick: bool) -> dict:
    eff = effort(quick)
    sizes = DB_SIZES_QUICK if quick else DB_SIZES_FULL
    return {(workload, config, db_gb): _cell(config, workload, db_gb, eff)
            for workload in WORKLOADS for config in CONFIGS
            for db_gb in sizes}


def reduce(quick: bool, runs: dict) -> ExperimentResult:
    sizes = DB_SIZES_QUICK if quick else DB_SIZES_FULL
    result = ExperimentResult("fig15", "Impact of Database Size")
    result.metadata.update(
        three_tier=f"{THREE_TIER.dram_gb:g}+{THREE_TIER.nvm_gb:g} GB",
        dram_ssd=f"{DRAM_SSD.dram_gb:g} GB",
        nvm_ssd=f"{NVM_SSD.nvm_gb:g} GB",
        workers=WORKERS,
    )
    for workload in WORKLOADS:
        for config in CONFIGS:
            series = result.new_series(f"{workload}/{config}")
            for db_gb in sizes:
                series.add(db_gb, runs[(workload, config, db_gb)]
                           .throughput_at(WORKERS))
    small, large = sizes[0], sizes[-1]
    for workload in WORKLOADS:
        dram = result.series[f"{workload}/DRAM-SSD"]
        nvm = result.series[f"{workload}/NVM-SSD"]
        lazy = result.series[f"{workload}/Spf-Lazy"]
        eager = result.series[f"{workload}/Spf-Eager"]
        result.note(
            f"{workload}: at {small:g} GB DRAM-SSD/NVM-SSD = "
            f"{dram.y_at(small) / nvm.y_at(small):.2f}x; at {large:g} GB = "
            f"{dram.y_at(large) / nvm.y_at(large):.2f}x; "
            f"Spf-Lazy/Spf-Eager at {large:g} GB = "
            f"{lazy.y_at(large) / eager.y_at(large):.2f}x"
        )
    return result
