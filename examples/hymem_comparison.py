#!/usr/bin/env python3
"""HyMem vs Spitfire head-to-head on the same substrate (§6.5).

Runs the exact same YCSB-RO access stream (recorded as a trace) through
HyMem (eager DRAM migration, admission-queue NVM, 256 B fine-grained
loading, mini pages) and Spitfire-Lazy, and reports throughput, NVM
write volume, and data movement — the Fig. 12/13 comparison in one
script.

Run:  python examples/hymem_comparison.py
"""

from repro import BufferManager, HierarchyShape, SPITFIRE_LAZY, StorageHierarchy
from repro.bench.harness import RunConfig, WorkloadRunner
from repro.core.buffer_manager import BufferManagerConfig
from repro.core.hymem import make_hymem
from repro.pages.granularity import OPTANE_LOADING_UNIT
from repro.workloads.trace import Trace
from repro.workloads.tpcc import PageAccess
from repro.workloads.ycsb import TUPLE_SIZE, YCSB_RO, YcsbWorkload

DB_GB = 20.0
SHAPE = HierarchyShape(dram_gb=8.0, nvm_gb=32.0, ssd_gb=100.0)
OPS = 20_000


def record_trace() -> Trace:
    workload = YcsbWorkload(num_tuples=int(DB_GB) * 64 * 16, mix=YCSB_RO,
                            skew=0.3, seed=21)
    accesses = [
        PageAccess(workload.page_of(op.key), workload.offset_of(op.key),
                   TUPLE_SIZE, op.is_write)
        for op in workload.operations(2 * OPS)
    ]
    return Trace(accesses)


def run(bm: BufferManager, trace: Trace, label: str) -> None:
    runner = WorkloadRunner(bm, RunConfig(warmup_ops=0, measure_ops=0))
    runner.allocate_database(trace.num_pages)
    # Warm-start the buffers with the trace's hottest pages so both
    # managers exercise their steady-state NVM→DRAM paths.
    heat: dict[int, int] = {}
    for access in trace:
        heat[access.page_id] = heat.get(access.page_id, 0) + 1
    ranked = sorted(heat, key=heat.get, reverse=True)
    runner._prime(ranked)
    iterator = iter(trace)
    for _ in range(OPS):  # warm-up half
        runner.run_access(next(iterator))
    bm.hierarchy.reset_accounting()
    bm.reset_stats()
    for _ in range(OPS):  # measured half
        runner.run_access(next(iterator))
    throughput = bm.hierarchy.cost.throughput(OPS, workers=16)
    print(f"=== {label} ===")
    print(f"  throughput (16 workers) {throughput / 1e3:10.1f} kOps/s")
    print(f"  DRAM hits               {bm.stats.dram_hits:10d}")
    print(f"  NVM direct reads        {bm.stats.nvm_direct_reads:10d}")
    print(f"  NVM→DRAM migrations     {bm.stats.nvm_to_dram:10d}")
    print(f"  fine-grained loads      {bm.stats.fine_grained_loads:10d}")
    print(f"  mini-page promotions    {bm.stats.mini_page_promotions:10d}")
    print(f"  NVM write volume        {bm.nvm_write_volume_gb():10.4f} GB")
    print()


def main() -> None:
    trace = record_trace()
    print(f"replaying one {len(trace)}-access YCSB-RO trace through both "
          f"buffer managers\n({SHAPE.dram_gb:.0f} GB DRAM + "
          f"{SHAPE.nvm_gb:.0f} GB NVM, ~{DB_GB:.0f} GB database)\n")

    hymem = make_hymem(StorageHierarchy(SHAPE), fine_grained=True,
                       mini_pages=True, loading_unit=OPTANE_LOADING_UNIT)
    run(hymem, trace, "HyMem (fine-grained 256 B + mini pages + queue)")

    spitfire = BufferManager(
        StorageHierarchy(SHAPE), SPITFIRE_LAZY,
        BufferManagerConfig(fine_grained=False),
    )
    run(spitfire, trace, "Spitfire-Lazy (no layout optimizations)")

    print("Paper's takeaway (§6.5): the migration policy matters more than")
    print("the layout optimizations — baseline lazy beats optimized eager.")


if __name__ == "__main__":
    main()
