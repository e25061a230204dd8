#!/usr/bin/env python3
"""Quickstart: build a three-tier hierarchy and drive the buffer manager.

Creates the §6.3 configuration (12.5 GB DRAM + 50 GB NVM over SSD, at
simulation scale), runs a YCSB balanced workload under both the eager
and lazy Spitfire policies, and prints the comparison the paper's Fig. 6
makes: lazy data migration wins by keeping hot data in DRAM without
paying eager migration costs.

Run:  python examples/quickstart.py
"""

from repro import (
    BufferManager,
    HierarchyShape,
    SPITFIRE_EAGER,
    SPITFIRE_LAZY,
    StorageHierarchy,
    Tier,
    YCSB_BA,
    YcsbWorkload,
)
from repro.bench.harness import RunConfig, WorkloadRunner


def run_policy(policy, label):
    hierarchy = StorageHierarchy(HierarchyShape(dram_gb=12.5, nvm_gb=50.0,
                                                ssd_gb=200.0))
    bm = BufferManager(hierarchy, policy)
    workload = YcsbWorkload(num_tuples=100 * 64 * 16, mix=YCSB_BA,
                            skew=0.3, seed=7)
    runner = WorkloadRunner(bm, RunConfig(warmup_ops=10_000, measure_ops=20_000))
    result = runner.measure_ycsb(workload)

    print(f"=== {label} ===")
    print(f"  policy                 {policy.label()}")
    print(f"  throughput (1 worker)  {result.throughput / 1e3:10.1f} kOps/s")
    print(f"  throughput (16 workers){result.throughput_at(16) / 1e3:10.1f} kOps/s")
    print(f"  DRAM hit ratio         {result.stats.dram_hit_ratio:10.3f}")
    print(f"  SSD fetches            {result.stats.ssd_fetches:10d}")
    print(f"  NVM→DRAM migrations    {result.stats.nvm_to_dram:10d}")
    print(f"  inclusivity ratio      {result.inclusivity:10.3f}")
    print(f"  NVM write volume       {result.nvm_write_gb:10.3f} GB")
    print(f"  DRAM buffer pages      {len(bm.resident_pages(Tier.DRAM)):10d}")
    print(f"  NVM buffer pages       {len(bm.resident_pages(Tier.NVM)):10d}")
    print()
    return result


def main() -> None:
    print("Spitfire quickstart: eager vs lazy migration on YCSB-BA")
    print("(12.5 GB DRAM + 50 GB NVM + SSD; 100 GB database)\n")
    eager = run_policy(SPITFIRE_EAGER, "Spitfire-Eager <1, 1, 1, 1>")
    lazy = run_policy(SPITFIRE_LAZY, "Spitfire-Lazy <0.01, 0.01, 0.2, 1>")
    speedup = lazy.throughput / eager.throughput
    print(f"Lazy/Eager speedup: {speedup:.2f}x "
          f"(the paper reports up to 1.58x on read-only YCSB)")


if __name__ == "__main__":
    main()
