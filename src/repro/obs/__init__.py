"""First-class observability: metrics, sim-latency histograms, tracing.

The package turns the PR-1 :class:`~repro.core.events.EventBus` into a
full telemetry surface:

* :mod:`repro.obs.metrics` — thread-safe Counter/Gauge/Histogram
  primitives behind a :class:`MetricsRegistry`; histograms use
  log2-scaled simulated-nanosecond buckets,
* :mod:`repro.obs.hub` — the :class:`MetricsHub` bus subscriber that
  derives per-tier hit/miss/eviction rates, occupancy and dirty-ratio
  gauges (sampled on sim-clock epochs), and per-op simulated-latency
  histograms split by outcome (DRAM hit / NVM hit / SSD fetch),
* :mod:`repro.obs.tracer` — a sampling page-lifecycle tracer recording
  install → migrate → evict → write-back spans with sim timestamps,
* :mod:`repro.obs.export` — Prometheus text exposition and JSONL
  snapshot streams, plus deterministic snapshot merging for per-worker
  results coming back from the process-pool executor,
* :mod:`repro.obs.decisions` — a :class:`DecisionRecorder` probing the
  migration engine's admit/deny decisions and eviction victims, with
  hash-sampled decision spans and per-policy counters,
* :mod:`repro.obs.server` — :class:`MetricsServer`, a stdlib HTTP
  endpoint serving the Prometheus exporter live mid-run.

Every subscriber implements the bus's ``apply_event`` fast-path
protocol, so attaching observability never knocks the bus off its
allocation-free emission path.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "decisions": ("DecisionRecorder",),
    "export": ("METRIC_HELP", "escape_label_value", "merge_snapshots",
               "prometheus_text", "snapshot_jsonl_lines", "write_jsonl",
               "write_prometheus"),
    "hub": ("MetricsHub",),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "server": ("MetricsServer",),
    "tracer": ("PageLifecycleTracer", "TraceSpan"),
})
