"""Decision tracing: why the migration engine moved (or kept) a page.

Aggregate counters say *what* happened — promotions, admissions,
evictions per tier.  This module records *why*: every probabilistic
tier-crossing decision (§3's ``<D_r, D_w, N_r, N_w>`` draws and HyMem's
admission-queue consultations) plus every eviction victim choice, with
the policy inputs in hand at the moment of the decision.

A :class:`DecisionRecorder` taps two sources at once:

* the :attr:`~repro.core.migration.MigrationEngine.probe` hook — the
  engine calls it once per :meth:`~repro.core.migration.MigrationEngine.decide`
  *after* the outcome is fixed, passing the edge, op, page, resolved
  policy, the admission queue it consulted (or None), and the verdict.
  The probe contract is strictly read-only: the recorder never draws
  from the engine's RNG and never mutates the queue, so attaching it
  cannot perturb the decision stream (the golden-figure gate proves
  this byte-for-byte);
* the event bus, with ``EVICT`` as its whole ``event_interest`` —
  capturing the victim class (dirty vs clean).

A span's ``tenant`` is the owner of its page
(:meth:`~repro.core.buffer_manager.BufferManager.tenant_of`): an
eviction span names the victim's tenant, not the tenant whose op was in
flight.

Every decision lands in the recorder's own
:class:`~repro.obs.metrics.MetricsRegistry` (complete per-policy
decision histograms:
``migration_decisions_total{op,edge,outcome,policy}``,
``admission_queue_depth``, ``eviction_victims_total{tier,victim_class}``).
A deterministic page-id hash — the same multiplicative hash the
:class:`~repro.obs.tracer.PageLifecycleTracer` uses, no RNG state —
additionally samples full decision *spans* (page, tier edge, policy
knobs, queue depth and lazy-admission counter state, tenant), capped at
``max_spans`` with an explicit drop counter.  When a
:class:`~repro.obs.hub.MetricsHub` is live for the same window, the
harness points its ``decision_source`` at the recorder and the
registries merge exactly once at hub finalize — so the Prometheus and
JSONL exporters see decision series with no extra plumbing.
"""

from __future__ import annotations

import json
import threading

from ..core.events import EventType
from ..core.migration import MigrationOp
from .metrics import MetricsRegistry
from .tracer import _HASH_MASK, _HASH_MULT

#: The engine op values, frozen here so span payloads stay stable even
#: if the enum gains members.
_OP_LABELS = {
    MigrationOp.PROMOTE_READ: "promote_read",
    MigrationOp.PROMOTE_WRITE: "promote_write",
    MigrationOp.FETCH_ADMIT: "fetch_admit",
    MigrationOp.EVICT_ADMIT: "evict_admit",
    MigrationOp.FLUSH_ADMIT: "flush_admit",
}


def _policy_label(policy) -> str:
    """A stable label for a policy: its name, or its knob tuple."""
    name = getattr(policy, "name", "")
    if name:
        return name
    return (f"<{policy.d_r:g},{policy.d_w:g},"
            f"{policy.n_r:g},{policy.n_w:g}>")


class DecisionRecorder:
    """Records migration/admission/eviction decisions for one window.

    ``fraction`` controls *span* sampling only — the per-policy decision
    counters are always complete (they are cheap aggregate increments);
    spans carry the full policy-input payload and are the expensive
    part, so they sample by page-id hash exactly like the lifecycle
    tracer: the same pages are sampled on every run and in every worker
    process, which keeps parallel runs byte-identical to serial ones.
    """

    #: The only event the bus needs to offer this subscriber.
    event_interest = frozenset({EventType.EVICT})

    def __init__(self, fraction: float = 1.0,
                 max_spans: int = 4096,
                 registry: MetricsRegistry | None = None) -> None:
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        self.fraction = fraction
        self.max_spans = max_spans
        self._threshold = int(fraction * (_HASH_MASK + 1))
        self.registry = registry or MetricsRegistry()
        self.spans: list[dict] = []
        self.spans_dropped = 0
        self._lock = threading.Lock()
        self._bus = None
        #: The attached manager's page→tenant rule
        #: (:meth:`~repro.core.buffer_manager.BufferManager.tenant_of`).
        self._tenant_of = None
        self._engine = None
        self._prev_probe = None
        self._cost = None
        self._queue_depth_hist = self.registry.histogram(
            "admission_queue_depth")
        self._decision_counters: dict[tuple, object] = {}
        self._victim_counters: dict[tuple, object] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, bm) -> "DecisionRecorder":
        """Install the engine probe and subscribe for eviction events."""
        if self._engine is not None:
            raise RuntimeError("recorder is already attached")
        self._engine = bm.engine
        self._prev_probe = bm.engine.probe
        bm.engine.probe = self
        self._cost = bm.hierarchy.cost
        self._tenant_of = bm.tenant_of
        self._bus = bm.events
        self._bus.subscribe(self)
        return self

    def detach(self) -> None:
        """Restore the previous probe and unsubscribe from the bus."""
        if self._engine is not None:
            self._engine.probe = self._prev_probe
            self._engine = None
            self._prev_probe = None
        if self._bus is not None:
            self._bus.unsubscribe(self)
            self._bus = None

    # ------------------------------------------------------------------
    # Engine probe protocol (called after every decide())
    # ------------------------------------------------------------------
    def record_decision(self, op, edge, page_id, admitted, policy,
                        queue) -> None:
        op_label = _OP_LABELS.get(op, str(op))
        edge_label = f"{edge.src.name}->{edge.dst.name}"
        outcome = "admitted" if admitted else "denied"
        policy_label = _policy_label(policy)
        key = (op_label, edge_label, outcome, policy_label)
        counter = self._decision_counters.get(key)
        if counter is None:
            counter = self.registry.counter("migration_decisions_total", {
                "op": op_label, "edge": edge_label,
                "outcome": outcome, "policy": policy_label,
            })
            self._decision_counters[key] = counter
        counter.inc()
        queue_depth = None
        queue_state = None
        if queue is not None:
            # Read-only introspection: len() and snapshot() take the
            # queue lock but never mutate FIFO or counter state.
            queue_depth = len(queue)
            considerations, admissions, rate = queue.snapshot()
            queue_state = {
                "considerations": considerations,
                "admissions": admissions,
                "admission_rate": rate,
            }
            self._queue_depth_hist.observe(queue_depth)
        if ((page_id * _HASH_MULT) & _HASH_MASK) >= self._threshold:
            return
        span = {
            "kind": "decision",
            "sim_ns": self._cost.total_ns if self._cost is not None else 0.0,
            "page": page_id,
            "op": op_label,
            "edge": edge_label,
            "admitted": admitted,
            "policy": policy_label,
            "knobs": {
                "d_r": policy.d_r, "d_w": policy.d_w,
                "n_r": policy.n_r, "n_w": policy.n_w,
            },
            "queue_depth": queue_depth,
            "queue_state": queue_state,
            "tenant": self._tenant_of(page_id),
        }
        with self._lock:
            if len(self.spans) < self.max_spans:
                self.spans.append(span)
            else:
                self.spans_dropped += 1

    # ------------------------------------------------------------------
    # Bus protocol (eviction victims)
    # ------------------------------------------------------------------
    def apply_op_batch(self, summary) -> None:
        """Bus batch path: no-op — batched hits decide nothing."""

    def apply_event(self, etype, page_id, tier, src, dirty) -> None:
        """Record one eviction victim (the bus offers nothing else)."""
        victim_class = "dirty" if dirty else "clean"
        tier_label = tier.name if tier is not None else "?"
        key = (tier_label, victim_class)
        counter = self._victim_counters.get(key)
        if counter is None:
            counter = self.registry.counter("eviction_victims_total", {
                "tier": tier_label, "victim_class": victim_class,
            })
            self._victim_counters[key] = counter
        counter.inc()
        if ((page_id * _HASH_MULT) & _HASH_MASK) >= self._threshold:
            return
        span = {
            "kind": "eviction",
            "sim_ns": self._cost.total_ns if self._cost is not None else 0.0,
            "page": page_id,
            "tier": tier_label,
            "victim_class": victim_class,
            "tenant": self._tenant_of(page_id),
        }
        with self._lock:
            if len(self.spans) < self.max_spans:
                self.spans.append(span)
            else:
                self.spans_dropped += 1

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def num_decisions(self) -> int:
        """Total decisions counted (complete, not span-sampled)."""
        return sum(c.value for c in self._decision_counters.values())

    def summary(self) -> dict:
        """Per-policy decision histogram digest, JSON-able and sorted."""
        decisions: dict[str, int] = {}
        for (op, edge, outcome, policy), counter in sorted(
                self._decision_counters.items()):
            decisions[f"{policy}/{op}/{edge}/{outcome}"] = counter.value
        victims = {
            f"{tier}/{victim_class}": counter.value
            for (tier, victim_class), counter in sorted(
                self._victim_counters.items())
        }
        return {
            "decisions": decisions,
            "eviction_victims": victims,
            "queue_depth_observations": self._queue_depth_hist.count,
            "spans_recorded": len(self.spans),
            "spans_dropped": self.spans_dropped,
            "sample_fraction": self.fraction,
        }

    def report(self) -> dict:
        """The run-result payload: sampled spans plus the digest."""
        with self._lock:
            spans = list(self.spans)
        return {"spans": spans, "summary": self.summary()}


def decision_trace_jsonl_lines(trace: dict,
                               label: str | None = None) -> list[str]:
    """Flatten a :meth:`DecisionRecorder.report` payload (a
    ``RunResult.decision_trace``) into JSONL lines: one per sampled span
    plus one trailing digest, each tagged with ``label`` when given.
    Write them with :func:`~repro.obs.export.write_jsonl`.
    """
    lines = []
    for span in trace.get("spans", ()):
        record = {"record": "decision_span", **span}
        if label is not None:
            record["cell"] = label
        lines.append(json.dumps(record, sort_keys=True,
                                separators=(",", ":")))
    digest = {"record": "decision_summary", **trace.get("summary", {})}
    if label is not None:
        digest["cell"] = label
    lines.append(json.dumps(digest, sort_keys=True, separators=(",", ":")))
    return lines
