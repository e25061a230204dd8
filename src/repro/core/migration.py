"""The migration engine: every probabilistic tier-crossing decision (§3).

The buffer manager's chain walk asks exactly one question of this
module — :meth:`MigrationEngine.decide` — whenever a page might cross a
tier edge: promote on a read/write hit, admit an SSD fetch, admit a
DRAM eviction, or admit a checkpoint flush.  Centralising the draws
keeps the paper's policy tuple ``<D_r, D_w, N_r, N_w>`` (and HyMem's
admission queue) in one place and makes the knob-to-edge mapping
explicit:

* *promotions* into any node draw the DRAM knobs (``D_r``/``D_w``),
* *admissions* into any non-top node draw the NVM knobs
  (``N_r`` on fetch, ``N_w`` on eviction/flush),
* the admission queue, when configured, replaces the ``N_w`` draw for
  the NVM-role node only.

For the paper's chains — DRAM-SSD, NVM-SSD and DRAM-NVM-SSD — this is
exactly §3's four probabilities.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass

from ..hardware.specs import Tier
from ..pages.page import PageId
from .admission import AdmissionQueue
from .policy import MigrationPolicy


class MigrationOp(enum.Enum):
    """The kinds of tier-crossing decisions the chain walk makes."""

    #: Promote a buffered page one edge up to serve a read (§3.1, D_r).
    PROMOTE_READ = "promote_read"
    #: Route a write through the upper tier instead of in place (§3.2, D_w).
    PROMOTE_WRITE = "promote_write"
    #: Admit an SSD fetch into a non-top buffer tier (§3.3, N_r).
    FETCH_ADMIT = "fetch_admit"
    #: Admit an eviction from the tier above (§3.4, N_w / admission queue).
    EVICT_ADMIT = "evict_admit"
    #: Admit a checkpoint flush instead of paying the SSD write.
    FLUSH_ADMIT = "flush_admit"


@dataclass(frozen=True)
class Edge:
    """A directed tier edge ``src → dst`` (``dst`` receives the copy)."""

    src: Tier
    dst: Tier

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Edge({self.src.name}→{self.dst.name})"


class MigrationEngine:
    """Owns the RNG, the policy draws, and the admission queues.

    The policy itself stays swappable at runtime (the adaptive tuner
    replaces it between epochs), so ``decide`` re-reads it from the
    shared :class:`~repro.core.policy.PolicySlot` unless the caller
    passes the snapshot it took at the start of the operation — the
    chain walk does, preserving the invariant that one logical
    operation sees one policy.
    """

    __slots__ = ("_policy_slot", "rng", "admission_queues", "tenancy", "probe")

    def __init__(self, policy_slot, rng: random.Random,
                 admission_queues: tuple[AdmissionQueue, ...] = ()) -> None:
        self._policy_slot = policy_slot
        self.rng = rng
        #: One NVM admission queue per tenant, indexed by tenant id (one
        #: without tenancy); empty when eviction admission draws ``N_w``.
        self.admission_queues = admission_queues
        #: Optional :class:`~repro.core.tenancy.TenancyControl`: the
        #: page→tenant rule that picks a page's queue.
        self.tenancy = None
        #: Optional decision probe (see
        #: :class:`~repro.obs.decisions.DecisionRecorder`).  Called once
        #: per decision, *after* the outcome is fixed, with the edge, op,
        #: page, resolved policy, consulted queue (or None), and the
        #: outcome — strictly read-only by contract: a probe must never
        #: draw from the RNG or mutate the admission queue, so attaching
        #: one cannot perturb the decision stream.
        self.probe = None

    # ------------------------------------------------------------------
    def decide(self, edge: Edge, op: MigrationOp, page_id: PageId,
               policy: MigrationPolicy | None = None) -> bool:
        """Should ``page_id`` cross ``edge`` for this ``op``?

        Draw accounting matters: the underlying Bernoulli draw consumes
        RNG state only for probabilities strictly between 0 and 1, and
        the admission queue mutates on *every* consultation — so callers
        must ask exactly once per actual decision point.
        """
        if policy is None:
            policy = self._policy_slot.policy
        queue = None
        if op is MigrationOp.PROMOTE_READ:
            admitted = policy.promote_to_dram_on_read(self.rng)
        elif op is MigrationOp.PROMOTE_WRITE:
            admitted = policy.route_write_through_dram(self.rng)
        elif op is MigrationOp.FETCH_ADMIT:
            admitted = policy.admit_to_nvm_on_fetch(self.rng)
        elif op in (MigrationOp.EVICT_ADMIT, MigrationOp.FLUSH_ADMIT):
            if edge.dst is Tier.NVM:
                queue = self._queue_for(page_id)
            if queue is not None:
                admitted = queue.should_admit(page_id)
            else:
                admitted = policy.admit_to_nvm_on_eviction(self.rng)
        else:
            raise ValueError(f"unknown migration op {op}")  # pragma: no cover
        probe = self.probe
        if probe is not None:
            probe.record_decision(op, edge, page_id, admitted, policy, queue)
        return admitted

    def _queue_for(self, page_id: PageId) -> AdmissionQueue | None:
        """The admission queue deciding NVM entry for this page: its
        tenant's (tenant 0 without tenancy), or None without queues.

        Each tenant consults its own queue so one tenant's eviction
        churn cannot flush another tenant's recently denied pages out
        of a shared FIFO."""
        queues = self.admission_queues
        if not queues:
            return None
        tenancy = self.tenancy
        return queues[0 if tenancy is None else tenancy.tenant_of(page_id)]
