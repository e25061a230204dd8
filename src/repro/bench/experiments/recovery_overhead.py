"""Ablation: app-direct NVM shrinks recovery work (§6.2's second claim).

The paper argues for app-direct mode partly because "SPITFIRE exploits
the persistence property of NVM to reduce the overhead of the recovery
protocol by eliminating the need to flush modified pages in the NVM
buffer."  This ablation quantifies that by running the same update-heavy
engine workload on a DRAM-SSD and a DRAM-NVM-SSD hierarchy and crashing
both at the same point.

Two costs are measured per hierarchy, from the same update-heavy run:

* the *runtime* recovery-protocol overhead — how many dirty pages the
  checkpointer flushed and how many bytes that pushed to SSD (on the
  three-tier hierarchy, flushes persist into the NVM buffer instead);
* the *post-crash* work — redo operations and simulated recovery time.

Expected shape: the three-tier hierarchy moves (almost) no checkpoint
bytes to SSD and recovers quickly because most modified pages are
already durable in the NVM buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...core.policy import DRAM_SSD_POLICY, SPITFIRE_LAZY
from ...engine.engine import EngineConfig, StorageEngine
from ...hardware.cost_model import StorageHierarchy
from ...hardware.pricing import HierarchyShape
from ...hardware.specs import SimulationScale, Tier
from ...wal.recovery import RecoveryManager
from ...workloads.ycsb import YCSB_WH
from ...workloads.ycsb_engine import YcsbEngine
from ..reporting import ExperimentResult

SCALE = SimulationScale(pages_per_gb=8)
CONFIGS = {
    "DRAM-SSD": (HierarchyShape(4.0, 0.0, 100.0), DRAM_SSD_POLICY),
    "DRAM-NVM-SSD": (HierarchyShape(4.0, 16.0, 100.0), SPITFIRE_LAZY),
}

OPS_QUICK = 1_500
OPS_FULL = 6_000
NUM_TUPLES = 1_500


@dataclass(frozen=True)
class CrashRecoveryRun:
    """One hierarchy's run, crash and recovery: a batch item."""

    label: str
    operations: int

    @property
    def weight(self) -> float:
        return float(self.operations)

    def run(self) -> dict[str, float]:
        shape, policy = CONFIGS[self.label]
        hierarchy = StorageHierarchy(shape, SCALE)
        engine = StorageEngine(
            hierarchy, policy,
            config=EngineConfig(checkpoint_interval_ops=200),
        )
        engine.log.group_commit_size = 1
        driver = YcsbEngine(engine, num_tuples=NUM_TUPLES, mix=YCSB_WH, seed=3)
        driver.load()
        hierarchy.reset_accounting()  # measure the run, not the load
        ssd = hierarchy.device(Tier.SSD)
        log_bytes_before = engine.log.stats.bytes_appended
        driver.run(self.operations)
        # Runtime recovery-protocol overhead: checkpoint flush traffic that
        # reached the SSD beyond the WAL itself.
        ssd_write_bytes = ssd.snapshot_counters().media_write_bytes
        wal_bytes = engine.log.stats.bytes_appended - log_bytes_before
        flush_bytes = max(0.0, ssd_write_bytes - wal_bytes)
        pages_flushed = engine.checkpointer.pages_flushed
        engine.simulate_crash()
        hierarchy.reset_accounting()
        report = RecoveryManager(engine.bm, engine.log).recover()
        recovery_ns = hierarchy.cost.makespan_ns(workers=1)
        return {
            "pages_flushed": float(pages_flushed),
            "flush_ssd_mb": flush_bytes / 1e6,
            "redo_applied": float(report.redo_applied),
            "recovery_ms": recovery_ns / 1e6,
            "nvm_pages_recovered": float(report.recovered_nvm_pages),
        }


def _operations(quick: bool) -> int:
    return OPS_QUICK if quick else OPS_FULL


def cells(quick: bool) -> dict:
    return {label: CrashRecoveryRun(label, _operations(quick))
            for label in CONFIGS}


def reduce(quick: bool, runs: dict) -> ExperimentResult:
    result = ExperimentResult(
        "recovery", "Recovery Overhead: DRAM-SSD vs DRAM-NVM-SSD (§6.2 claim)"
    )
    result.metadata.update(workload="YCSB-WH", operations=_operations(quick),
                           tuples=NUM_TUPLES)
    for metric in ("pages_flushed", "flush_ssd_mb", "redo_applied",
                   "recovery_ms", "nvm_pages_recovered"):
        series = result.new_series(metric)
        for label in CONFIGS:
            series.add(label, runs[label][metric])
    two_tier = runs["DRAM-SSD"]
    three_tier = runs["DRAM-NVM-SSD"]
    result.note(
        f"checkpoint bytes to SSD: {two_tier['flush_ssd_mb']:.2f} MB "
        f"(DRAM-SSD) vs {three_tier['flush_ssd_mb']:.2f} MB (three-tier) — "
        "NVM absorbs the recovery protocol's flushing (§6.2)"
    )
    result.note(
        f"simulated recovery time: {two_tier['recovery_ms']:.3f} ms vs "
        f"{three_tier['recovery_ms']:.3f} ms"
    )
    return result
