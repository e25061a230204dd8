"""Fig. 5 — Benefits of NVM and app-direct mode (§6.2).

Compares two *equi-cost* hierarchies while the database grows from
5 GB to 305 GB:

* **DRAM-SSD (memory mode)** — a 140 GB buffer served by NVM with the
  platform's DRAM acting as a hardware-managed L4 cache; volatile, so
  dirty pages must still be flushed to SSD.
* **NVM-SSD (app direct)** — a 340 GB NVM buffer managed directly;
  persistent, so dirty NVM pages never flush.

Expected shape: memory mode wins (slightly) while the working set is
DRAM-cacheable; app-direct NVM-SSD wins big once the database outgrows
the 140 GB memory-mode buffer (up to 6x on YCSB-RO in the paper, 2.28x
on YCSB-BA/TPC-C).
"""

from __future__ import annotations

from ...core.policy import DRAM_SSD_POLICY, NVM_SSD_POLICY
from ...hardware.pricing import HierarchyShape
from ..reporting import ExperimentResult
from .common import COARSE_SCALE, Cell, effort

#: Memory-mode server of §6.2: 96 GB DRAM cache, 140 GB buffer capacity.
MEMORY_MODE_SHAPE = HierarchyShape(dram_gb=96.0, nvm_gb=140.0, ssd_gb=400.0)
#: Equi-cost app-direct configuration: 340 GB NVM buffer.
NVM_SSD_SHAPE = HierarchyShape(dram_gb=0.0, nvm_gb=340.0, ssd_gb=400.0)

DB_SIZES_FULL = (5.0, 25.0, 45.0, 85.0, 125.0, 165.0, 225.0, 265.0, 305.0)
DB_SIZES_QUICK = (5.0, 45.0, 125.0, 225.0, 305.0)

WORKLOADS = ("YCSB-RO", "YCSB-BA", "TPC-C")

WORKERS = 16


def _cell(workload_name: str, db_gb: float, memory_mode: bool, eff) -> Cell:
    shape = MEMORY_MODE_SHAPE if memory_mode else NVM_SSD_SHAPE
    policy = DRAM_SSD_POLICY if memory_mode else NVM_SSD_POLICY
    mode = "mem" if memory_mode else "appdirect"
    kwargs = dict(effort=eff, scale=COARSE_SCALE, memory_mode=memory_mode)
    if workload_name == "TPC-C":
        return Cell.tpcc(f"{workload_name}/{mode}/{db_gb:g}GB", shape, policy,
                         db_gb, **kwargs)
    return Cell.ycsb(f"{workload_name}/{mode}/{db_gb:g}GB", shape, policy,
                     workload_name, db_gb, **kwargs)


def cells(quick: bool) -> dict:
    eff = effort(quick)
    sizes = DB_SIZES_QUICK if quick else DB_SIZES_FULL
    return {(workload, memory_mode, db_gb): _cell(workload, db_gb,
                                                  memory_mode, eff)
            for workload in WORKLOADS for memory_mode in (False, True)
            for db_gb in sizes}


def reduce(quick: bool, runs: dict) -> ExperimentResult:
    sizes = DB_SIZES_QUICK if quick else DB_SIZES_FULL
    result = ExperimentResult(
        "fig5", "Benefits of NVM and App-Direct Mode (throughput, 16 workers)"
    )
    result.metadata.update(
        memory_mode_buffer_gb=MEMORY_MODE_SHAPE.nvm_gb,
        nvm_ssd_buffer_gb=NVM_SSD_SHAPE.nvm_gb,
        workers=WORKERS,
    )
    for workload in WORKLOADS:
        for memory_mode in (False, True):
            label = f"{workload}/{'DRAM-SSD(mem)' if memory_mode else 'NVM-SSD'}"
            series = result.new_series(label)
            for db_gb in sizes:
                series.add(db_gb, runs[(workload, memory_mode, db_gb)]
                           .throughput_at(WORKERS))
    # Headline comparison the paper calls out.
    for workload in WORKLOADS:
        nvm = result.series[f"{workload}/NVM-SSD"]
        mem = result.series[f"{workload}/DRAM-SSD(mem)"]
        largest = sizes[-1]
        ratio = nvm.y_at(largest) / max(mem.y_at(largest), 1e-9)
        result.note(
            f"{workload}: NVM-SSD / memory-mode at {largest:.0f} GB = {ratio:.2f}x"
        )
    return result
