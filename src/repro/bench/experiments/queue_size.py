"""§6.5 "Admission Queue Size" — sizing HyMem's NVM admission queue.

The paper: "the size of the admission queue is not mentioned in [37].
So, we conduct an experiment to determine a performant queue size. We
observe that the queue size is proportional to the size of the NVM
buffer. In particular, setting the queue size to be half the number of
the pages in the NVM buffer works well on both workloads (~8 MB)."

This experiment sweeps the queue size as a fraction of the NVM buffer's
page count on YCSB-RO and TPC-C.  Expected shape: throughput rises with
the queue size (too-small queues forget pages before their second
consideration, so nothing gets admitted to NVM) and plateaus around the
one-half point — larger queues buy nothing.
"""

from __future__ import annotations

from ...core.buffer_manager import BufferManagerConfig
from ...core.policy import HYMEM_POLICY
from ...hardware.specs import DEFAULT_SCALE
from ...pages.granularity import OPTANE_LOADING_UNIT
from ..reporting import ExperimentResult
from .common import HYMEM_DB_GB, HYMEM_SHAPE, Cell, effort

#: Queue size as a fraction of the NVM buffer's page count.
QUEUE_FRACTIONS = (0.031, 0.125, 0.5, 1.0, 2.0)

WORKERS = 16


def _cell(workload: str, fraction: float, eff) -> Cell:
    # The NVM buffer's page count, computable without building devices.
    nvm_pages = DEFAULT_SCALE.pages(HYMEM_SHAPE.nvm_gb)
    config = BufferManagerConfig(
        fine_grained=True, mini_pages=False,
        loading_unit=OPTANE_LOADING_UNIT,
        admission_queue_size=max(1, int(nvm_pages * fraction)),
    )
    label = f"{workload}/q={fraction:g}"
    if workload == "TPC-C":
        return Cell.tpcc(label, HYMEM_SHAPE, HYMEM_POLICY, HYMEM_DB_GB,
                         effort=eff, bm_config=config)
    return Cell.ycsb(label, HYMEM_SHAPE, HYMEM_POLICY, "YCSB-RO",
                     HYMEM_DB_GB, effort=eff, bm_config=config)


def cells(quick: bool) -> dict:
    return {(workload, fraction): _cell(workload, fraction, effort(quick))
            for workload in ("YCSB-RO", "TPC-C")
            for fraction in QUEUE_FRACTIONS}


def reduce(quick: bool, runs: dict) -> ExperimentResult:
    result = ExperimentResult(
        "queue_size", "HyMem Admission Queue Size (§6.5 sizing experiment)"
    )
    result.metadata.update(
        dram_gb=HYMEM_SHAPE.dram_gb, nvm_gb=HYMEM_SHAPE.nvm_gb,
        db_gb=HYMEM_DB_GB, workers=WORKERS,
    )
    for workload in ("YCSB-RO", "TPC-C"):
        series = result.new_series(workload)
        for fraction in QUEUE_FRACTIONS:
            series.add(fraction,
                       runs[(workload, fraction)].throughput_at(WORKERS))
    for workload in ("YCSB-RO", "TPC-C"):
        series = result.series[workload]
        half = series.y_at(0.5)
        tiny = series.y_at(QUEUE_FRACTIONS[0])
        double = series.y_at(2.0)
        result.note(
            f"{workload}: half-NVM queue vs tiny queue = {half / tiny:.2f}x; "
            f"doubling beyond half changes it by {double / half:.2f}x"
        )
    return result
