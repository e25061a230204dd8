"""Epoch-driven adaptive data migration controller (§4, §6.4).

The controller owns the feedback loop around
:class:`~repro.tuning.annealing.PolicyAnnealer`: each tuning epoch it
installs a candidate policy on the buffer manager, has its caller run
the epoch's operations, measures the epoch's throughput from the cost
accumulator delta, and feeds it back to the annealer.  The caller picks
how many operations an epoch runs, so the controller counts nothing and
observes nothing on the event bus.

The paper evaluates each candidate across millions of buffer requests
(a 5 s epoch) so that the policy's effect dominates noise; here the
epoch length is expressed in operations and the throughput comes from
simulated time, so shorter epochs remain statistically meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..core.buffer_manager import BufferManager
from ..core.policy import MigrationPolicy
from .annealing import PolicyAnnealer


@dataclass
class EpochRecord:
    """Measurement of one tuning epoch."""

    epoch: int
    policy: MigrationPolicy
    operations: int
    throughput: float
    accepted: bool
    temperature: float


class AdaptiveController:
    """Runs the adapt-measure-decide loop on top of a buffer manager."""

    def __init__(self, buffer_manager: BufferManager, seed: int = 7) -> None:
        self.bm = buffer_manager
        self.annealer = PolicyAnnealer(buffer_manager.policy, seed=seed)
        self.records: list[EpochRecord] = []

    def run_epoch(self, run_ops: Callable[[int], object],
                  operations: int) -> EpochRecord:
        """One epoch: ``run_ops(operations)`` must run that many
        operations on the buffer manager, under the candidate policy."""
        # The first epoch measures the starting policy, so the annealer
        # has a baseline cost before it explores.
        candidate = (self.annealer.propose() if self.records
                     else self.bm.policy)
        self.bm.set_policy(candidate)
        cost = self.bm.hierarchy.cost
        baseline = cost.snapshot()
        run_ops(operations)
        throughput = cost.delta_since(baseline).throughput(operations)
        accepted = self.annealer.observe(candidate, throughput)
        record = EpochRecord(
            epoch=len(self.records),
            policy=candidate,
            operations=operations,
            throughput=throughput,
            accepted=accepted,
            temperature=self.annealer.temperature,
        )
        self.records.append(record)
        # Keep running the annealer's current policy between epochs.
        self.bm.set_policy(self.annealer.current_policy)
        return record

    def run(self, run_ops: Callable[[int], object], epochs: int,
            ops_per_epoch: int) -> list[EpochRecord]:
        """``epochs`` calls of :meth:`run_epoch`; returns the per-epoch
        records (the Fig. 10 series)."""
        for _ in range(epochs):
            self.run_epoch(run_ops, ops_per_epoch)
        return self.records

    @property
    def best_policy(self) -> MigrationPolicy:
        return self.annealer.best_policy

    def throughput_series(self) -> list[float]:
        """Per-epoch throughput, i.e. the y-axis of Fig. 10."""
        return [record.throughput for record in self.records]
