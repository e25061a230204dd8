"""The MetricsHub: an event-bus subscriber that derives live metrics.

One hub attaches to one buffer manager for one measurement window and
fills a :class:`~repro.obs.metrics.MetricsRegistry` with:

* **per-op simulated latency** — each logical op's cost is bracketed by
  reading the shared :class:`~repro.hardware.simclock.CostAccumulator`
  total at consecutive ``OP_READ``/``OP_WRITE`` events; the delta lands
  in a log2 histogram split by outcome (``dram_hit`` / ``nvm_hit`` /
  ``ssd_fetch``), so tail questions like "what was the p99 during the
  policy transient?" are answerable after the fact.  An op's latency
  includes the WAL/checkpoint work it triggered, which is charged
  before the next op begins,
* **epoch gauges** — whenever accumulated sim time crosses an epoch
  boundary the hub samples tier occupancy and dirty ratios, records the
  sample in an epoch series, and advances the hierarchy's
  :class:`~repro.hardware.simclock.SimClock` to the boundary, so the
  clock tracks observable sim progress,
* **traffic counters** — ops by kind, hits per tier, misses, installs,
  evictions, write-backs, clean drops, flushes and per-edge migrations.
  These are not counted here: the core already counts every one of
  them in :class:`~repro.core.stats.BufferStats`, so the window's
  counters are the ``bm.stats`` delta since :meth:`MetricsHub.attach`,
  written through :data:`TRAFFIC` and visible once
  :meth:`~MetricsHub.finalize` (or :meth:`~MetricsHub.detach`) has run.

The bus offers the hub only what the latency bracket needs —
``OP_READ``, ``OP_WRITE`` and ``HIT`` (an op with no hit is a miss).
:meth:`detach` restores the exact pre-attach subscriber set, even when
finalizing raises.  Under concurrent ``threading`` workers the
histogram *counts* stay exact (one observation per op event, by
construction); outcome attribution of an individual latency sample may
be approximate across interleaved ops.
"""

from __future__ import annotations

from ..core.events import EventType
from ..hardware.simclock import FP_SCALE
from ..hardware.specs import Tier
from ..np_compat import np
from .metrics import Counter, Histogram, MetricsRegistry

#: Default epoch length for gauge sampling: 10 simulated milliseconds.
DEFAULT_EPOCH_NS = 10_000_000.0

#: Outcome label of a full miss (the access went to the SSD store).
MISS_OUTCOME = "ssd_fetch"


#: Series that exist in every window.
ALWAYS = "always"
#: Series that exist once the window crossed them (a migration edge).
CROSSED = "crossed"

#: Each exported traffic series as ``(BufferStats field, family, labels,
#: when)``: ``when`` is :data:`ALWAYS`, :data:`CROSSED`, or the tier
#: whose series it is (written whenever that tier is in the chain).
TRAFFIC = (
    ("reads", "buffer_ops_total", {"kind": "read"}, ALWAYS),
    ("writes", "buffer_ops_total", {"kind": "write"}, ALWAYS),
    ("ssd_fetches", "buffer_misses_total", {}, ALWAYS),
    ("clean_drops", "clean_drops_total", {}, ALWAYS),
    ("dirty_page_flushes", "dirty_page_flushes_total", {}, ALWAYS),
    ("dram_hits", "tier_hits_total", {"tier": "DRAM"}, Tier.DRAM),
    ("nvm_hits", "tier_hits_total", {"tier": "NVM"}, Tier.NVM),
    ("ssd_to_dram", "tier_installs_total", {"tier": "DRAM"}, Tier.DRAM),
    ("ssd_to_nvm", "tier_installs_total", {"tier": "NVM"}, Tier.NVM),
    ("dram_evictions", "tier_evictions_total", {"tier": "DRAM"}, Tier.DRAM),
    ("nvm_evictions", "tier_evictions_total", {"tier": "NVM"}, Tier.NVM),
    ("dram_to_ssd", "tier_write_backs_total", {"src": "DRAM"}, Tier.DRAM),
    ("nvm_to_ssd", "tier_write_backs_total", {"src": "NVM"}, Tier.NVM),
    ("nvm_to_dram", "migrations_total",
     {"direction": "up", "edge": "NVM->DRAM"}, CROSSED),
    ("dram_to_nvm", "migrations_total",
     {"direction": "down", "edge": "DRAM->NVM"}, CROSSED),
)


def outcome_label(tier: Tier) -> str:
    """The latency-histogram outcome label of a hit on ``tier``."""
    return f"{tier.name.lower()}_hit"


class MetricsHub:
    """Derives registry metrics from one buffer manager's event stream."""

    #: The latency bracket's events; traffic comes from ``bm.stats``.
    event_interest = frozenset({EventType.OP_READ, EventType.OP_WRITE,
                                EventType.HIT})

    def __init__(self, registry: MetricsRegistry | None = None,
                 epoch_ns: float = DEFAULT_EPOCH_NS,
                 fault_source=None, track_tenants: bool = False) -> None:
        self.registry = registry or MetricsRegistry()
        self.epoch_ns = float(epoch_ns)
        #: Project tenant-labelled series alongside the global ones:
        #: ``tenant_ops_total{tenant,kind}`` counters and
        #: ``tenant_op_latency_ns{tenant,kind}`` histograms.  Attribution
        #: is exact by construction — the op's tenant is read from the
        #: bus register at its OP event, and its latency bracket closes
        #: into the histogram chosen there — so for any window the
        #: tenant-labelled sums reconcile ±0 with the global totals.
        self.track_tenants = bool(track_tenants)
        #: Optional fault-injection source (an object exposing a
        #: ``registry`` of ``faults_injected_total`` /
        #: ``device_retries_total`` / ``torn_writes_detected_total``
        #: counters — typically a
        #: :class:`~repro.faults.injector.InjectionHandle`).  Its
        #: snapshot merges into this hub's registry at finalize, so the
        #: Prometheus/JSONL exporters see fault counters with no extra
        #: plumbing.  When not given, :meth:`attach` picks up the handle
        #: :func:`~repro.faults.injector.inject_faults` stashed on the
        #: buffer manager's hierarchy.
        self.fault_source = fault_source
        #: Optional decision source (an object exposing a ``registry``
        #: of ``migration_decisions_total`` / ``eviction_victims_total``
        #: counters and the ``admission_queue_depth`` histogram —
        #: typically a :class:`~repro.obs.decisions.DecisionRecorder`
        #: attached over the same window).  Like ``fault_source``, its
        #: snapshot merges into this hub's registry exactly once at
        #: finalize, so exported metrics carry per-policy decision
        #: histograms with no extra plumbing.
        self.decision_source = None
        #: One record per epoch tick: sim time plus per-tier occupancy
        #: and dirty ratios — the time series behind "how did the DRAM
        #: dirty ratio evolve before the checkpoint?".
        self.epochs: list[dict] = []
        self._bm = None
        #: ``bm.stats`` as of attach (moved on at every finalize).
        self._stats_base = None
        self._bus = None
        self._cost = None
        self._clock = None
        self._chain = None
        self._next_epoch = float("inf")
        # Per-op bracketing state.
        self._op_start: float | None = None
        self._cur_hist: Histogram | None = None
        #: Tenant histogram of the op currently in flight (parallel to
        #: ``_cur_hist``, but chosen at the OP event, not the outcome).
        self._tenant_cur_hist: Histogram | None = None
        self._tenant_hists: dict[tuple[int, str], Histogram] = {}
        self._tenant_counters: dict[tuple[int, str], Counter] = {}
        self._finalized = False
        # Resolved-per-attach metric handles (no registry lookups on the
        # hot path).
        self._miss_hist: Histogram | None = None
        self._hit_hists: dict[Tier, Histogram] = {}
        self._occupancy_gauges: dict[Tier, object] = {}
        self._dirty_gauges: dict[Tier, object] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, bm) -> "MetricsHub":
        """Subscribe to ``bm``'s bus and resolve per-tier metric handles."""
        if self._bus is not None:
            raise RuntimeError("hub is already attached")
        registry = self.registry
        self._bm = bm
        self._stats_base = bm.stats.snapshot()
        self._cost = bm.hierarchy.cost
        self._clock = bm.hierarchy.clock
        self._chain = bm.chain
        self._miss_hist = registry.histogram(
            "op_latency_ns", {"outcome": MISS_OUTCOME}
        )
        for node in bm.chain:
            tier = node.tier
            name = tier.name
            self._hit_hists[tier] = registry.histogram(
                "op_latency_ns", {"outcome": outcome_label(tier)}
            )
            self._occupancy_gauges[tier] = registry.gauge(
                "tier_occupancy_ratio", {"tier": name}
            )
            self._dirty_gauges[tier] = registry.gauge(
                "tier_dirty_ratio", {"tier": name}
            )
        self._op_start = None
        self._cur_hist = None
        self._tenant_cur_hist = None
        self._finalized = False
        if self.fault_source is None:
            self.fault_source = getattr(bm.hierarchy, "fault_handle", None)
        self._next_epoch = self._cost.total_ns + self.epoch_ns
        self._bus = bm.events
        self._bus.subscribe(self)
        return self

    def detach(self) -> None:
        """Finalize pending state and restore the pre-attach bus."""
        if self._bus is None:
            return
        try:
            self.finalize()
        finally:
            # A raising source merge must not leave the hub subscribed:
            # it would double-count every later window on this bus.
            self._bus.unsubscribe(self)
            self._bus = None

    def finalize(self) -> None:
        """Flush the in-flight op, take a closing gauge sample and write
        the window's traffic counters from ``bm.stats``."""
        if self._finalized or self._cost is None:
            return
        self._finalized = True
        now = self._cost.total_ns
        start = self._op_start
        if start is not None:
            hist = self._cur_hist or self._miss_hist
            hist.observe(now - start)
            if self._tenant_cur_hist is not None:
                self._tenant_cur_hist.observe(now - start)
            self._op_start = None
            self._cur_hist = None
            self._tenant_cur_hist = None
        if self._chain is not None:
            self._sample_epoch(now)
        self._write_traffic()
        if self.track_tenants and self._bm is not None:
            # Cumulative-since-construction admission stats, published
            # once per window (same one-shot guard as the fault merge).
            tenancy = getattr(self._bm, "tenancy", None)
            if tenancy is not None and tenancy.admission_queues:
                for tenant, (cons, adm, _rate) in enumerate(
                    tenancy.admission_stats()
                ):
                    labels = {"tenant": str(tenant)}
                    self.registry.counter(
                        "tenant_admission_considerations_total", labels
                    ).inc(cons)
                    self.registry.counter(
                        "tenant_admissions_total", labels
                    ).inc(adm)
        source = self.fault_source
        if source is not None:
            # One-shot by construction: finalize runs once per window
            # (guarded by ``_finalized``), so fault counters merge
            # exactly once into this hub's registry.
            self.registry.merge_snapshot(source.registry.snapshot())
        decisions = self.decision_source
        if decisions is not None:
            # Same one-shot guard as the fault merge above.
            self.registry.merge_snapshot(decisions.registry.snapshot())

    # ------------------------------------------------------------------
    # Bus protocol
    # ------------------------------------------------------------------
    def apply_op_batch(self, summary) -> None:
        """Batched projection of a run of top-tier read hits.

        Reconstructs, exactly, the per-op latency brackets a sequential
        run would have measured: the accumulator total at the ``i``-th
        op's OP_READ event is ``(base_fp + cumsum(latency_fp)[:i]) /
        FP_SCALE``, and the bracket diffs are float subtractions of
        those same values.  Epoch boundaries are found on the
        reconstructed timeline and sampled at the same op positions a
        per-op run would have sampled them (buffer state is unchanged by
        fast-path reads, so the gauge values match too).
        """
        count = summary.count
        base_fp = summary.base_fp
        cum = np.cumsum(summary.latency_fp, dtype=np.int64)
        # starts[i] == cost.total_ns as read at the i-th OP_READ event.
        starts = np.empty(count, dtype=np.float64)
        starts[0] = base_fp / FP_SCALE
        if count > 1:
            starts[1:] = (base_fp + cum[:-1]).astype(np.float64) / FP_SCALE
        start = self._op_start
        if start is not None:
            # The op in flight before this run closes at the run's first
            # OP_READ, exactly as apply_event would have closed it.
            (self._cur_hist or self._miss_hist).observe(float(starts[0]) - start)
        hit_hist = self._hit_hists.get(summary.tier, self._miss_hist)
        if count > 1:
            hit_hist.observe_batch(starts[1:] - starts[:-1])
        if self.track_tenants:
            if start is not None and self._tenant_cur_hist is not None:
                self._tenant_cur_hist.observe(float(starts[0]) - start)
            tenant_hist, tenant_counter = self._tenant_handles(
                summary.tenant_id, "read"
            )
            if count > 1:
                tenant_hist.observe_batch(starts[1:] - starts[:-1])
            self._tenant_cur_hist = tenant_hist
            tenant_counter.inc(count)
        self._op_start = float(starts[-1])
        self._cur_hist = hit_hist
        self._finalized = False
        if float(starts[-1]) >= self._next_epoch:
            idx = int(np.searchsorted(starts, self._next_epoch, side="left"))
            while idx < count:
                self._sample_epoch(float(starts[idx]))
                nxt = int(np.searchsorted(starts, self._next_epoch, side="left"))
                idx = nxt if nxt > idx else idx + 1

    def apply_event(self, etype, page_id, tier, src, dirty) -> None:
        """Project one event; fields arrive positionally from the bus."""
        if etype is EventType.OP_READ or etype is EventType.OP_WRITE:
            now = self._cost.total_ns
            start = self._op_start
            if start is not None:
                # The previous op's charges (including its WAL/checkpoint
                # tail) are committed by the time the next op begins.
                (self._cur_hist or self._miss_hist).observe(now - start)
            self._op_start = now
            self._cur_hist = None
            self._finalized = False
            if self.track_tenants:
                kind = "read" if etype is EventType.OP_READ else "write"
                if start is not None and self._tenant_cur_hist is not None:
                    self._tenant_cur_hist.observe(now - start)
                hist, counter = self._tenant_handles(self._bus.tenant_id, kind)
                self._tenant_cur_hist = hist
                counter.inc()
            if now >= self._next_epoch:
                self._sample_epoch(now)
        else:  # HIT, the one other type the bus offers the hub
            self._cur_hist = self._hit_hists.get(tier, self._miss_hist)

    # ------------------------------------------------------------------
    # Tenant-labelled series
    # ------------------------------------------------------------------
    def _tenant_handles(self, tenant_id: int, kind: str):
        """Resolve (lazily) the histogram+counter pair of one tenant/kind.

        Lazy: only tenants that actually run ops appear in the registry,
        keeping single-tenant exports free of phantom series.
        """
        key = (tenant_id, kind)
        hist = self._tenant_hists.get(key)
        if hist is None:
            labels = {"tenant": str(tenant_id), "kind": kind}
            hist = self.registry.histogram("tenant_op_latency_ns", labels)
            self._tenant_hists[key] = hist
            self._tenant_counters[key] = self.registry.counter(
                "tenant_ops_total", labels
            )
        return hist, self._tenant_counters[key]

    # ------------------------------------------------------------------
    # Traffic counters
    # ------------------------------------------------------------------
    def _write_traffic(self) -> None:
        """Add the ``bm.stats`` delta since the last write to the
        :data:`TRAFFIC` series (the attach snapshot, on a window's one
        finalize)."""
        stats = self._bm.stats
        delta = stats.delta_since(self._stats_base)
        self._stats_base = stats.snapshot()
        tiers = {node.tier for node in self._chain}
        for field, family, labels, when in TRAFFIC:
            value = getattr(delta, field)
            if when is ALWAYS or when in tiers or (when is CROSSED and value):
                self.registry.counter(family, labels).inc(value)

    # ------------------------------------------------------------------
    # Epoch gauges
    # ------------------------------------------------------------------
    def _sample_epoch(self, now: float) -> None:
        """Sample occupancy/dirty gauges and advance the sim clock."""
        tiers: dict[str, dict[str, float]] = {}
        for node in self._chain:
            pool = node.pool
            capacity = pool.capacity_bytes or 1
            occupancy = pool.used_bytes / capacity
            descriptors = pool.descriptors()
            dirty = sum(1 for d in descriptors if d.dirty)
            dirty_ratio = dirty / len(descriptors) if descriptors else 0.0
            self._occupancy_gauges[node.tier].set(occupancy)
            self._dirty_gauges[node.tier].set(dirty_ratio)
            tiers[node.tier.name] = {
                "occupancy": occupancy,
                "dirty_ratio": dirty_ratio,
            }
        self.epochs.append({"sim_ns": now, "tiers": tiers})
        if self._clock is not None:
            self._clock.advance_to(now)
        # Next boundary strictly ahead of now, even after a long stall.
        epoch = self.epoch_ns
        self._next_epoch = now + epoch - (now % epoch if epoch else 0.0)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-able result payload: registry state plus the epoch series."""
        return {
            "registry": self.registry.snapshot(),
            "epochs": list(self.epochs),
        }

    def op_latency_count(self) -> int:
        """Total latency observations across all outcome histograms.

        Reconciles ±0 with ``BufferStats.reads + writes`` for the same
        window once :meth:`finalize` has run — every op event flushes
        exactly one observation.
        """
        total = 0
        for series in self.registry.series():
            if isinstance(series, Histogram) and series.name == "op_latency_ns":
                total += series.count
        return total
