"""Columnar batch execution over the access path.

:class:`BatchAccessPath` executes a whole array of operations at once
by partitioning it into *outcome classes* with mapping-table probes:

* the **fast class** — reads that hit the top tier on a plain full
  page — is executed as one run: one replacement touch pass, one
  batched device charge, one batched CPU charge, and a single
  :class:`~repro.core.events.OpBatchSummary` published to the event
  bus.  Under the Table 1 cost model every hit of one size costs the
  same, so a run of ``m`` hits is one per-op charge times ``m``,
* everything else (writes, misses, lower-tier hits that may promote,
  fine-grained layouts, devices without ``read_batch`` — memory mode and
  fault wrappers) falls back to the existing :class:`~repro.core.access_path.AccessPath`
  walk per operation, so every policy decision stays single-sourced.

The contract is *byte identity*: a batched run must leave the buffer
manager, the cost accumulator, the device counters, the RNG stream,
and every attached observer in exactly the state an op-at-a-time run
would have produced.  The fast class is chosen to make that provable:

* fast reads draw no randomness (a top-tier hit never climbs) and
  mutate nothing but reference bits and counters, so slow-path
  operations see identical state regardless of how the fast ops around
  them were executed,
* all accounting is fixed-point (:mod:`repro.hardware.simclock`), so
  one integer product equals the per-op charge sequence exactly,
* runs preserve op order: a batch is scanned left to right and a
  vectorized run never crosses a slow op, so event order and charge
  interleaving match the sequential schedule.

When a subscriber cannot consume batch summaries or the top tier
cannot be vectorized, every operation falls back — the batch entry
points are then simply loops over the per-op path.  The observers a
measurement attaches (the metrics hub and the decision recorder) both
consume summaries; the adaptive controller attaches nothing.
"""

from __future__ import annotations

from ..hardware.simclock import CostAccumulator
from ..hardware.specs import Tier
from ..pages.page import Page
from .access_path import AccessPath
from .events import EventBus, OpBatchSummary
from .tier_chain import TierChain, TierNode

__all__ = ["BatchAccessPath"]


class BatchAccessPath:
    """Array-at-a-time execution of read batches with per-op fallback."""

    def __init__(self, access_path: AccessPath, chain: TierChain,
                 hierarchy, events: EventBus, config) -> None:
        self.access_path = access_path
        self.chain = chain
        self.hierarchy = hierarchy
        self.events = events
        self.config = config
        #: Runs executed vectorised since construction (one per
        #: published :class:`OpBatchSummary`); 0 means every batch so
        #: far fell back to the per-op path.
        self.fast_runs = 0

    # ------------------------------------------------------------------
    # Fast-path eligibility
    # ------------------------------------------------------------------
    def _fast_read_node(self) -> TierNode | None:
        """The top tier node, when top-tier read hits can be vectorized.

        Re-resolved per batch: subscribers may attach or detach between
        batches (metrics windows).
        """
        if not self.events.batch_path_active:
            return None
        if self.config.fine_grained:
            # Fine-grained layouts charge per-line bookkeeping and can
            # promote mini pages mid-read; keep those on the slow path.
            return None
        nodes = self.chain.nodes
        if not nodes:
            return None
        top = nodes[0]
        device = top.device
        if not hasattr(device, "read_batch"):
            return None  # MemoryModeDevice, FaultyDevice
        return top

    # ------------------------------------------------------------------
    # Batch entry points
    # ------------------------------------------------------------------
    def read_batch(self, page_ids, offsets, nbytes: int) -> None:
        """Execute a batch of uniform-size reads in op order.

        ``page_ids``/``offsets`` are parallel sequences of equal length
        (a mismatch raises :class:`ValueError` before anything is
        charged); ``nbytes`` is the per-op access size.  Contiguous runs
        of top-tier hits execute vectorized; every other op takes the
        per-op access path at its original position in the sequence.
        """
        n = len(page_ids)
        if len(offsets) != n:
            raise ValueError(f"read_batch got {n} page_ids but "
                             f"{len(offsets)} offsets")
        access = self.access_path.access
        top = self._fast_read_node()
        if top is None:
            for i in range(n):
                access(page_ids[i], offsets[i], nbytes, False)
            return
        lookup = self.access_path.table.get
        tier = top.tier
        i = 0
        while i < n:
            # The maximal run of top-tier full-page hits starting at i,
            # looked up without touching the replacement state: the
            # touches are replayed in op order by the run itself.
            frames = []
            j = i
            while j < n:
                shared = lookup(page_ids[j])
                descriptor = shared.copy_on(tier) if shared is not None else None
                if descriptor is None or not isinstance(descriptor.content, Page):
                    break
                frames.append(descriptor.frame_index)
                j += 1
            if frames:
                self._run_fast_reads(top, page_ids[i:j], frames, nbytes)
                i = j
            else:
                access(page_ids[i], offsets[i], nbytes, False)
                i += 1

    # ------------------------------------------------------------------
    # Vectorized execution of one fast run
    # ------------------------------------------------------------------
    def _run_fast_reads(self, top: TierNode, ids, frames,
                        nbytes: int) -> None:
        """Vectorized execution of ``len(ids)`` top-tier read hits.

        Mirrors, charge for charge, the per-op sequence: lookup CPU
        (which creates the cpu accumulator slot first), replacement
        touch, device read (media transfer + access latency), and the
        OP_READ/HIT[/DIRECT_READ] event sequence — collapsed into one
        replacement pass, two batched charges, and one bus summary
        carrying the one per-op charge every hit of the run pays.
        """
        m = len(ids)
        self.fast_runs += 1
        cost: CostAccumulator = self.hierarchy.cost
        lookup_fp = self.access_path._lookup_fp
        base_fp = cost.total_fp
        # The lookups first, as a per-op run charges them: the cpu slot
        # is created before the device's.
        cost.charge_batch_fp(CostAccumulator.CPU, lookup_fp * m, m)
        top.pool.replacer.record_access_batch(frames)
        transfer_fp, latency_fp = top.device.read_batch(nbytes, count=m)
        per_op_fp = transfer_fp + (lookup_fp + latency_fp)
        # What ``m`` per-op OP_READ → HIT [→ DIRECT_READ] sequences count.
        stats = self.chain.stats
        stats.reads += m
        if top.tier is Tier.DRAM:
            stats.dram_hits += m
        else:
            # A persistent top serves its hits in place.
            stats.nvm_hits += m
            stats.nvm_direct_reads += m
        self.events.publish_op_batch(
            OpBatchSummary(
                count=m,
                tier=top.tier,
                direct=top.persistent,
                page_ids=ids,
                base_fp=base_fp,
                latency_fp=per_op_fp,
            )
        )
