"""The :class:`FaultyDevice` decorator and hierarchy installation.

A :class:`FaultyDevice` wraps a :class:`~repro.hardware.device.Device`
and conforms to its per-op API (``read``/``write``/``persist_barrier``/
counter accessors), so the tier chain, the SSD store, and the WAL all
operate on it unchanged.  It has no ``read_batch``: a fault index is
per op, so the columnar batch path reads a wrapped top tier one op at
a time, as it does a memory-mode device.  On each access it consults its
:class:`~repro.faults.plan.FaultSchedule`:

* a scheduled transient error raises
  :class:`~repro.faults.plan.DeviceIOError` *before* any cost is
  charged (the op never reached the media); the retry layer in
  :mod:`repro.core.devio` absorbs it,
* a scheduled latency spike charges the spike as worker (CPU) stall
  through the shared cost accumulator — sim-time-charged, exactly like
  a device access latency — then completes the op normally.

Fault and retry counters land in an ``obs``
:class:`~repro.obs.metrics.MetricsRegistry`
(``faults_injected_total{tier,kind}``, ``device_retries_total{tier}``,
``torn_writes_detected_total``), so the chaos CLI and the Prometheus
exporter see them with no extra plumbing.

:func:`inject_faults` installs wrappers into a
:class:`~repro.hardware.cost_model.StorageHierarchy` **before** the
buffer manager / engine is built (components capture device references
at construction).  With a no-op plan the wrapper is pure delegation —
a wrapped cell charges exactly what the bare cell charges.
"""

from __future__ import annotations

import threading

from ..hardware.device import Device
from ..hardware.simclock import CostAccumulator
from ..obs.metrics import MetricsRegistry
from .plan import DeviceIOError, FaultPlan, FaultSchedule

__all__ = ["FaultyDevice", "InjectionHandle", "inject_faults"]


class FaultyDevice:
    """A fault-injecting decorator over one simulated device."""

    def __init__(self, delegate: Device,
                 schedule: FaultSchedule | None = None,
                 registry: MetricsRegistry | None = None) -> None:
        self.delegate = delegate
        self.schedule = schedule
        registry = registry if registry is not None else MetricsRegistry()
        self.registry = registry
        key = delegate.resource_key
        self._key = key
        self._lock = threading.Lock()
        self._read_index = 0
        self._write_index = 0
        self._read_error_counter = registry.counter(
            "faults_injected_total", {"tier": key, "kind": "read_error"})
        self._write_error_counter = registry.counter(
            "faults_injected_total", {"tier": key, "kind": "write_error"})
        self._spike_counter = registry.counter(
            "faults_injected_total", {"tier": key, "kind": "latency_spike"})
        self._retry_counter = registry.counter(
            "device_retries_total", {"tier": key})

    # ------------------------------------------------------------------
    # Device API surface (delegated)
    # ------------------------------------------------------------------
    @property
    def spec(self):
        return self.delegate.spec

    @property
    def capacity_bytes(self):
        return self.delegate.capacity_bytes

    @property
    def cost(self) -> CostAccumulator:
        return self.delegate.cost

    @property
    def counters(self):
        return self.delegate.counters

    @property
    def tier(self):
        return self.delegate.tier

    @property
    def resource_key(self) -> str:
        return self.delegate.resource_key

    def capacity_pages(self, page_size: int):
        return self.delegate.capacity_pages(page_size)

    def persist_barrier(self) -> float:
        return self.delegate.persist_barrier()

    def snapshot_counters(self):
        return self.delegate.snapshot_counters()

    def reset_counters(self) -> None:
        self.delegate.reset_counters()

    def write_volume_gb(self) -> float:
        return self.delegate.write_volume_gb()

    def endurance_consumed(self) -> float:
        return self.delegate.endurance_consumed()

    # ------------------------------------------------------------------
    # Faulting access paths
    # ------------------------------------------------------------------
    def _active(self, schedule: FaultSchedule) -> bool:
        now = self.delegate.cost.total_ns
        return schedule.active_after_ns <= now < schedule.active_until_ns

    def read(self, nbytes: int, sequential: bool = False) -> float:
        schedule = self.schedule
        if schedule is not None:
            with self._lock:
                index = self._read_index
                self._read_index += 1
            if self._active(schedule):
                if index in schedule.read_errors:
                    self._read_error_counter.inc()
                    raise DeviceIOError(self._key, "read", index)
                if index in schedule.read_spikes:
                    self._spike_counter.inc()
                    self.delegate.cost.charge(
                        CostAccumulator.CPU, schedule.spike_ns)
        return self.delegate.read(nbytes, sequential)

    def write(self, nbytes: int, sequential: bool = False) -> float:
        schedule = self.schedule
        if schedule is not None:
            with self._lock:
                index = self._write_index
                self._write_index += 1
            if self._active(schedule):
                if index in schedule.write_errors:
                    self._write_error_counter.inc()
                    raise DeviceIOError(self._key, "write", index)
                if index in schedule.write_spikes:
                    self._spike_counter.inc()
                    self.delegate.cost.charge(
                        CostAccumulator.CPU, schedule.spike_ns)
        return self.delegate.write(nbytes, sequential)

    # ------------------------------------------------------------------
    # Retry protocol (called by repro.core.devio on re-issue)
    # ------------------------------------------------------------------
    def note_retry(self) -> None:
        self._retry_counter.inc()

    @property
    def faults_injected(self) -> int:
        return (self._read_error_counter.value
                + self._write_error_counter.value
                + self._spike_counter.value)

    @property
    def retries(self) -> int:
        return self._retry_counter.value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        events = self.schedule.total_events() if self.schedule else 0
        return f"FaultyDevice({self.delegate!r}, scheduled={events})"


class InjectionHandle:
    """Installed injection state: wrappers, metrics, and uninstall."""

    def __init__(self, hierarchy, plan: FaultPlan,
                 registry: MetricsRegistry) -> None:
        self.hierarchy = hierarchy
        self.plan = plan
        self.registry = registry
        self.devices: dict = {}
        self._originals: dict = {}
        self._torn_counter = registry.counter("torn_writes_detected_total")

    def note_torn_detected(self, count: int = 1) -> None:
        """Record checksum-detected torn writes (WAL tail or page)."""
        if count:
            self._torn_counter.inc(count)

    @property
    def torn_writes_detected(self) -> int:
        return self._torn_counter.value

    def faults_injected(self) -> int:
        return sum(d.faults_injected for d in self.devices.values())

    def retries(self) -> int:
        return sum(d.retries for d in self.devices.values())

    def uninstall(self) -> None:
        """Restore the original devices (test teardown convenience)."""
        for tier, device in self._originals.items():
            self.hierarchy.devices[tier] = device
        self._originals.clear()
        self.devices.clear()
        if getattr(self.hierarchy, "fault_handle", None) is self:
            self.hierarchy.fault_handle = None


def inject_faults(hierarchy, plan: FaultPlan,
                  registry: MetricsRegistry | None = None) -> InjectionHandle:
    """Wrap every plain device in ``hierarchy`` with a :class:`FaultyDevice`.

    Must run *before* the buffer manager / engine is constructed: core
    components capture device references at build time, so wrapping
    afterwards would leave page traffic on the unwrapped devices.
    Memory-mode devices are left unwrapped (their DRAM-cache-over-NVM
    accounting is a different device model; see docs/FAULTS.md).
    """
    registry = registry if registry is not None else MetricsRegistry()
    handle = InjectionHandle(hierarchy, plan, registry)
    for tier, device in list(hierarchy.devices.items()):
        if not isinstance(device, Device):
            continue
        wrapped = FaultyDevice(device, plan.for_device(device.resource_key),
                               registry)
        handle._originals[tier] = device
        handle.devices[tier] = wrapped
        hierarchy.devices[tier] = wrapped
    # Stashed on the hierarchy so downstream observers (the MetricsHub,
    # the executor) find the active injection without extra plumbing.
    hierarchy.fault_handle = handle
    return handle
