"""Fig. 10 — Adaptive data migration (§6.4).

Starts Spitfire with a fully eager policy (D = 1, N = 1) on a 2.5 GB
DRAM + 10 GB NVM hierarchy and lets the simulated-annealing controller
adapt the policy epoch by epoch on YCSB-RO and YCSB-BA.

Expected shape: per-epoch throughput climbs and converges as the
annealer cools (the paper reports +52% on YCSB-RO), and the best
discovered policy is lazy for DRAM (D < 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...core.buffer_manager import BufferManager
from ...core.policy import SPITFIRE_EAGER
from ...hardware.cost_model import StorageHierarchy
from ...hardware.pricing import HierarchyShape
from ...hardware.specs import DEFAULT_SCALE
from ...tuning.controller import AdaptiveController
from ...workloads.ycsb import MIXES, YcsbWorkload
from ..harness import RunConfig, WorkloadRunner
from ..reporting import ExperimentResult

SHAPE = HierarchyShape(dram_gb=2.5, nvm_gb=10.0, ssd_gb=100.0)
DB_GB = 40.0
WORKLOADS = ("YCSB-RO", "YCSB-BA")

EPOCHS_QUICK = 40
EPOCHS_FULL = 100
OPS_PER_EPOCH_QUICK = 3_000
OPS_PER_EPOCH_FULL = 8_000


@dataclass(frozen=True)
class AdaptiveRun:
    """One workload's controller run from a cold eager start: a batch
    item, so the suite's batch schedules it with the grid cells."""

    label: str
    epochs: int
    ops_per_epoch: int

    @property
    def weight(self) -> float:
        return float(self.epochs * self.ops_per_epoch)

    def run(self):
        """``(per-epoch records, best policy)`` of the controller run."""
        bm = BufferManager(StorageHierarchy(SHAPE, DEFAULT_SCALE),
                           SPITFIRE_EAGER)
        workload = YcsbWorkload(
            num_tuples=DEFAULT_SCALE.pages(DB_GB) * 16,
            mix=MIXES[self.label], skew=0.3, seed=3,
        )
        runner = WorkloadRunner(bm, RunConfig(warmup_ops=0, measure_ops=0))
        runner.allocate_database(workload.num_pages)
        # Deliberately *no* buffer priming: Fig. 10 shows the journey from
        # a cold eager start to the tuned steady state.
        controller = AdaptiveController(bm, seed=11)
        records = controller.run(
            workload_step=lambda: runner.run_ycsb_op(workload),
            epochs=self.epochs,
            ops_per_epoch=self.ops_per_epoch,
        )
        return records, controller.best_policy


def _effort(quick: bool) -> tuple[int, int]:
    if quick:
        return EPOCHS_QUICK, OPS_PER_EPOCH_QUICK
    return EPOCHS_FULL, OPS_PER_EPOCH_FULL


def cells(quick: bool) -> dict:
    return {name: AdaptiveRun(name, *_effort(quick)) for name in WORKLOADS}


def reduce(quick: bool, runs: dict) -> ExperimentResult:
    epochs, ops_per_epoch = _effort(quick)
    result = ExperimentResult(
        "fig10", "Adaptive Data Migration (per-epoch throughput)"
    )
    result.metadata.update(
        dram_gb=SHAPE.dram_gb, nvm_gb=SHAPE.nvm_gb, db_gb=DB_GB,
        epochs=epochs, ops_per_epoch=ops_per_epoch, start_policy="eager",
    )
    for workload_name in WORKLOADS:
        records, best = runs[workload_name]
        series = result.new_series(workload_name)
        for record in records:
            series.add(record.epoch, record.throughput)
        first = records[0].throughput
        tail = [record.throughput
                for record in records[-max(3, epochs // 10):]]
        converged = sum(tail) / len(tail)
        result.note(
            f"{workload_name}: eager start {first / 1e3:.0f} kOps -> "
            f"converged {converged / 1e3:.0f} kOps "
            f"({converged / max(first, 1e-9):.2f}x); "
            f"best policy D=({best.d_r}, {best.d_w}) N=({best.n_r}, {best.n_w})"
        )
    return result
