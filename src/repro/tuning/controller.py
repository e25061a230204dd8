"""Epoch-driven adaptive data migration controller (§4, §6.4).

The controller owns the feedback loop around
:class:`~repro.tuning.annealing.PolicyAnnealer`: at the start of each
tuning epoch it installs a candidate policy on the buffer manager; at
the end it measures the epoch's throughput from the cost accumulator
delta and feeds it back to the annealer.

The paper evaluates each candidate across millions of buffer requests
(a 5 s epoch) so that the policy's effect dominates noise; here the
epoch length is expressed in operations and the throughput comes from
simulated time, so shorter epochs remain statistically meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.buffer_manager import BufferManager
from ..core.events import EventType
from ..core.policy import MigrationPolicy
from .annealing import AnnealingSchedule, PolicyAnnealer


@dataclass
class EpochRecord:
    """Measurement of one tuning epoch."""

    epoch: int
    policy: MigrationPolicy
    operations: int
    throughput: float
    accepted: bool
    temperature: float


class _OpCounter:
    """Bus observer that tallies operations for the controller."""

    __slots__ = ("_controller",)

    #: The only events the bus needs to offer this subscriber.
    event_interest = frozenset({EventType.OP_READ, EventType.OP_WRITE})

    def __init__(self, controller: "AdaptiveController") -> None:
        self._controller = controller

    def apply_event(self, etype, page_id, tier, src, dirty) -> None:
        self._controller._ops_seen += 1


class AdaptiveController:
    """Runs the adapt-measure-decide loop on top of a buffer manager."""

    def __init__(
        self,
        buffer_manager: BufferManager,
        workers: int = 1,
        schedule: AnnealingSchedule | None = None,
        seed: int = 7,
        lockstep: bool = True,
    ) -> None:
        self.bm = buffer_manager
        self.workers = workers
        self.annealer = PolicyAnnealer(
            buffer_manager.policy, schedule=schedule, seed=seed, lockstep=lockstep
        )
        self.records: list[EpochRecord] = []
        self._epoch = 0
        self._candidate: MigrationPolicy | None = None
        self._baseline: dict | None = None
        self._ops_at_start = 0
        # Count operations by subscribing to the buffer manager's event
        # bus rather than polling its stats object, so the measurement
        # survives a mid-epoch ``reset_stats()``.
        self._ops_seen = 0
        self._observer = _OpCounter(self)
        buffer_manager.events.subscribe(self._observer)

    def detach(self) -> None:
        """Stop observing the buffer manager's event bus."""
        self.bm.events.unsubscribe(self._observer)

    # ------------------------------------------------------------------
    def begin_epoch(self) -> MigrationPolicy:
        """Install the next candidate policy and start measuring."""
        if self._candidate is not None:
            raise RuntimeError("previous epoch was not ended")
        if self._epoch == 0:
            # Measure the starting policy first so the annealer has a
            # baseline cost before exploring.
            candidate = self.bm.policy
        else:
            candidate = self.annealer.propose()
        self._candidate = candidate
        self.bm.set_policy(candidate)
        self._baseline = self.bm.hierarchy.cost.snapshot()
        self._ops_at_start = self._ops_seen
        return candidate

    def end_epoch(self) -> EpochRecord:
        """Measure the epoch and feed the result to the annealer."""
        if self._candidate is None or self._baseline is None:
            raise RuntimeError("begin_epoch was not called")
        operations = self._ops_seen - self._ops_at_start
        delta = self.bm.hierarchy.cost.delta_since(self._baseline)
        throughput = delta.throughput(operations, self.workers)
        accepted = self.annealer.observe(self._candidate, throughput)
        record = EpochRecord(
            epoch=self._epoch,
            policy=self._candidate,
            operations=operations,
            throughput=throughput,
            accepted=accepted,
            temperature=self.annealer.temperature,
        )
        self.records.append(record)
        self._epoch += 1
        self._candidate = None
        self._baseline = None
        # Keep running the annealer's current policy between epochs.
        self.bm.set_policy(self.annealer.current_policy)
        return record

    # ------------------------------------------------------------------
    def run(self, workload_step, epochs: int, ops_per_epoch: int) -> list[EpochRecord]:
        """Convenience loop: ``workload_step()`` must perform one operation.

        Returns the per-epoch records (the Fig. 10 series).
        """
        for _ in range(epochs):
            self.begin_epoch()
            for _ in range(ops_per_epoch):
                workload_step()
            self.end_epoch()
        return self.records

    @property
    def best_policy(self) -> MigrationPolicy:
        return self.annealer.best_policy

    def throughput_series(self) -> list[float]:
        """Per-epoch throughput, i.e. the y-axis of Fig. 10."""
        return [record.throughput for record in self.records]
