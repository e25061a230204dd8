"""The live serving plane: one shared hierarchy, many client sessions.

Every workload in the repository so far is a closed-loop batch run —
the harness drives a buffer manager it owns, measures, and exits.  This
package is the production face ROADMAP item 5 asks for: a long-running
asyncio server (:mod:`repro.serve.server`) exposing one shared
:class:`~repro.core.buffer_manager.BufferManager` to many concurrent
client sessions over a length-prefixed JSON protocol
(:mod:`repro.serve.protocol`), with per-tenant admission control and
overload shedding (:mod:`repro.serve.admission`), a seeded
deterministic open-loop load generator (:mod:`repro.serve.loadgen`),
byte-deterministic SLO reporting (:mod:`repro.serve.slo`), and the
``serve-bench`` virtual-time serving experiment
(:mod:`repro.serve.bench`).

The one discipline everything here obeys: **buffer-manager work runs
in a serial order**.  The simulated cost accounting (and the buffer
manager itself) is deterministic only for a serial op order, so
concurrency lives at the session/admission layer: many clients on one
single-threaded event loop, each admitted op run inline with no
``await`` until it is done — exactly the shape a real single-writer
storage engine serves traffic in.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "admission": ("AdmissionConfig", "AdmissionController", "Overloaded",
                  "OverloadReason", "TokenBucket"),
    "bench": ("ServeBenchConfig", "run_overload_experiment",
              "run_serve_bench"),
    "loadgen": ("LoadSchedule", "LoadSpec", "build_schedule", "drive_server"),
    "protocol": ("MAX_FRAME_BYTES", "ProtocolError", "decode_message",
                 "encode_message", "read_frame", "write_frame"),
    "server": ("ServeConfig", "SpitfireServer"),
    "slo": ("build_slo_report", "exact_quantile", "render_slo_report"),
})
