#!/usr/bin/env python3
"""Adaptive data migration: watch simulated annealing tune the policy.

Reproduces the Fig. 10 scenario interactively: Spitfire starts with a
fully *eager* policy on a small 2.5 GB DRAM + 10 GB NVM hierarchy and
adapts epoch by epoch on a read-only YCSB workload.  Prints one line
per tuning epoch with the candidate policy, measured throughput, and
accept/reject decision, then the converged policy.

Run:  python examples/adaptive_tuning.py
"""

from repro import (
    AdaptiveController,
    BufferManager,
    HierarchyShape,
    SPITFIRE_EAGER,
    StorageHierarchy,
    YCSB_RO,
    YcsbWorkload,
)
from repro.bench.harness import RunConfig, WorkloadRunner

EPOCHS = 30
OPS_PER_EPOCH = 3_000


def main() -> None:
    hierarchy = StorageHierarchy(HierarchyShape(dram_gb=2.5, nvm_gb=10.0,
                                                ssd_gb=100.0))
    bm = BufferManager(hierarchy, SPITFIRE_EAGER)
    workload = YcsbWorkload(num_tuples=40 * 64 * 16, mix=YCSB_RO,
                            skew=0.3, seed=11)
    runner = WorkloadRunner(bm, RunConfig(warmup_ops=0, measure_ops=0))
    runner.allocate_database(workload.num_pages)
    controller = AdaptiveController(bm, seed=5)

    print("Adaptive data migration (simulated annealing, §4 / Fig. 10)")
    print(f"start policy: {SPITFIRE_EAGER.label()}\n")
    print(f"{'epoch':>5} {'D_r':>5} {'D_w':>5} {'N_r':>5} {'N_w':>5} "
          f"{'kOps/s':>9}  {'temp':>9}  decision")
    for _ in range(EPOCHS):
        record = controller.run_epoch(
            lambda count: runner.run_ycsb_batch(workload, count),
            OPS_PER_EPOCH)
        candidate = record.policy
        decision = "accept" if record.accepted else "reject"
        print(f"{record.epoch:>5} {candidate.d_r:>5} {candidate.d_w:>5} "
              f"{candidate.n_r:>5} {candidate.n_w:>5} "
              f"{record.throughput / 1e3:>9.1f}  {record.temperature:>9.2f}  "
              f"{decision}")

    # Render the Fig. 10-style convergence curve in the terminal.
    from repro.bench.reporting import ExperimentResult

    chart = ExperimentResult("fig10-demo", "adaptive tuning")
    curve = chart.new_series("throughput (ops/s) per epoch")
    for record in controller.records:
        curve.add(record.epoch, record.throughput)
    print()
    print(chart.ascii_chart("throughput (ops/s) per epoch", width=60, height=10))

    final = controller.annealer.current_policy
    series = controller.throughput_series()
    improvement = series[-1] / series[0]
    print(f"\nconverged policy: <{final.d_r}, {final.d_w}, {final.n_r}, {final.n_w}>")
    print(f"throughput: {series[0] / 1e3:.1f} -> {series[-1] / 1e3:.1f} kOps/s "
          f"({improvement:.2f}x; the paper reports +52% on YCSB-RO)")


if __name__ == "__main__":
    main()
