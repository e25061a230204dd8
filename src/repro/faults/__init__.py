"""Fault injection and crash consistency (`repro.faults`).

The subsystem injects deterministic, seeded device faults beneath the
whole stack and proves the system survives them:

* :mod:`repro.faults.plan` — picklable :class:`FaultPlan` schedules of
  transient I/O errors, latency spikes, and crash-coupled torn-write /
  dropped-persist WAL-tail hazards, keyed by per-device op count and
  sim time,
* :mod:`repro.faults.injector` — the :class:`FaultyDevice` decorator
  conforming to the :class:`~repro.hardware.device.Device` API, plus
  :func:`inject_faults` to install it under a hierarchy, with counters
  exported through the ``obs`` metrics registry,
* :mod:`repro.faults.crash` — :class:`CrashController`, the single
  crash semantics shared by engine tests and the crash-point matrix,
  and :class:`SimulatedCrash` (a ``BaseException`` so an in-flight
  transaction is *not* rolled back on the way out — a crash, not an
  abort),
* :mod:`repro.faults.invariants` — post-recovery ACID checks usable
  from tests and the CLI,
* :mod:`repro.faults.crashpoints` — the exhaustive crash-point
  enumerator and replay matrix (not re-exported here: it pulls in the
  engine and workload layers).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "crash": ("CrashController", "CrashReport", "SimulatedCrash"),
    "plan": ("DeviceGaveUpError", "DeviceIOError", "FaultPlan",
             "FaultSchedule", "TailFault"),
})
