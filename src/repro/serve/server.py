"""The serving plane: one shared buffer manager, many client sessions.

:class:`SpitfireServer` binds an asyncio stream server speaking the
:mod:`~repro.serve.protocol` framing, builds one
:class:`~repro.core.buffer_manager.BufferManager` over one simulated
:class:`~repro.hardware.cost_model.StorageHierarchy`, and serves every
connected session from it concurrently.

The load-bearing design rule is the **inline rule**: the buffer manager
and its cost accounting are deterministic for a *serial* op order, and
the event loop is single-threaded, so a session runs each admitted op
itself, with no ``await`` between admission and release.  No other
session's op can start until it has finished: sessions overlap on the
network, buffer-manager work never does, and a ``txn`` op's sub-ops run
back-to-back, a cheap atomicity unit without a lock manager.

Around that serial core:

* **admission control** (:mod:`~repro.serve.admission`): every data op
  passes ``try_admit`` before it runs; refusals become typed
  ``overloaded`` / ``shutting_down`` protocol errors.  Nothing queues
  inside the server, so a tenant's depth is 0 at every admission and
  only the rate limit and the drain can refuse live work
  (``max_queue_depth`` binds in the virtual-time twin only),
* **chaos**: an optional :class:`~repro.faults.plan.FaultPlan` wraps
  the devices (before the buffer manager is built, as the injector
  requires) so device faults fire under live load; the ``crash`` op
  drops volatile state, recovers the mapping table, and runs the
  invariant sweep — while other sessions stay connected,
* **observability**: a :class:`~repro.obs.server.MetricsServer` serves
  ``/metrics`` (request/shed/session counters plus any fault-layer
  counters sharing the registry), ``/healthz``, and ``/readyz``,
* **graceful drain**: SIGTERM/SIGINT stop the listener, flip admission
  into drain mode, end the sessions (no op is ever half-run at an
  ``await``; a client that reads none of its replies is dropped after
  :data:`CLOSE_GRACE_S`), flush all dirty pages, and emit a final SLO
  report of everything served.
"""

from __future__ import annotations

import asyncio
import signal
import time
from dataclasses import dataclass, field

from ..core.buffer_manager import BufferManager, BufferManagerConfig
from ..core.policy import POLICY_PRESETS
from ..core.tenancy import TenancyConfig
from ..faults.injector import inject_faults
from ..faults.invariants import check_mapping_consistency
from ..faults.plan import DeviceGaveUpError, FaultPlan
from ..hardware.cost_model import StorageHierarchy
from ..hardware.pricing import HierarchyShape
from ..hardware.specs import DEFAULT_SCALE
from ..obs.export import prometheus_text
from ..obs.metrics import MetricsRegistry
from . import protocol
from .admission import AdmissionConfig, AdmissionController, Overloaded, OverloadReason
from .slo import LatencySample, build_slo_report

__all__ = ["ServeConfig", "SpitfireServer", "build_buffer_manager",
           "execute_op"]

#: Longest ``txn`` op list one request may carry.
MAX_TXN_OPS = 128
#: Longest ``read_batch`` a single request may carry.
MAX_BATCH_PAGES = 4096
#: Seconds a closing session may spend flushing its replies; a peer
#: that reads none of them is dropped after this, not awaited.
CLOSE_GRACE_S = 0.5


def execute_op(bm: BufferManager, is_write: bool, page_id: int, offset: int,
               nbytes: int, think_ns: float = 0.0) -> None:
    """Serve one read or write — the live server and the twin
    (:func:`repro.serve.bench.simulate_serving`) both run exactly this.

    Pages are allocated on first touch (TPC-C insert regions grow, live
    clients may name any page of their range); ``think_ns`` is charged
    as CPU service after the access.  The wire protocol has no think
    field, so the live server always passes 0.
    """
    if not bm.page_exists(page_id):
        bm.allocate_page(page_id)
    if is_write:
        bm.write(page_id, offset, nbytes)
    else:
        bm.read(page_id, offset, nbytes)
    if think_ns:
        bm.hierarchy.charge_cpu(think_ns)


def build_buffer_manager(policy: str, shape: HierarchyShape, *, seed: int,
                         num_tenants: int, page_stride: int,
                         fault_plan: FaultPlan | None = None,
                         registry: MetricsRegistry | None = None
                         ) -> BufferManager:
    """The serving plane's buffer manager — the live server and the twin
    (:mod:`repro.serve.bench`) both build theirs here.

    A Table 3 preset over ``shape`` at the default scale, tenants laid
    out ``page_stride`` pages apart.  A non-empty ``fault_plan`` wraps
    the devices first (core components capture device refs at build
    time), counting into ``registry``.
    """
    try:
        preset = POLICY_PRESETS[policy]
    except KeyError:
        raise ValueError(
            f"unknown policy preset {policy!r}; "
            f"choose from {sorted(POLICY_PRESETS)}"
        ) from None
    hierarchy = StorageHierarchy(shape, DEFAULT_SCALE)
    if fault_plan is not None and not fault_plan.is_noop:
        inject_faults(hierarchy, fault_plan, registry)
    return BufferManager(hierarchy, preset, BufferManagerConfig(
        seed=seed,
        tenancy=TenancyConfig(num_tenants=num_tenants,
                              page_stride=page_stride),
    ))


@dataclass(frozen=True)
class ServeConfig:
    """Everything a serving process needs to come up (picklable)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Table 3 policy preset name for the shared buffer manager.
    policy: str = "Spitfire-Eager"
    dram_gb: float = 0.5
    nvm_gb: float = 2.0
    ssd_gb: float = 8.0
    num_tenants: int = 4
    #: Pages per tenant range (power of two keeps page→tenant cheap).
    page_stride: int = 1 << 20
    seed: int = 42
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Optional chaos: device faults injected under the live load.
    fault_plan: FaultPlan | None = None
    #: ``None`` disables the metrics/health endpoint; 0 picks a port.
    metrics_port: int | None = None
    metrics_host: str = "127.0.0.1"
    #: Path for the shutdown SLO report (JSON); ``None`` skips it.
    slo_out: str | None = None

    def __post_init__(self) -> None:
        if self.num_tenants < 1:
            raise ValueError("num_tenants must be >= 1")
        if self.page_stride < 1:
            raise ValueError("page_stride must be >= 1")

    def shape(self) -> HierarchyShape:
        return HierarchyShape(self.dram_gb, self.nvm_gb, self.ssd_gb)


class _Session:
    """One connected client: identity, sequencing, and liveness."""

    __slots__ = ("session_id", "tenant_id", "last_seq", "writer", "ops")

    def __init__(self, session_id: int, writer) -> None:
        self.session_id = session_id
        self.tenant_id = 0
        self.last_seq = -1
        self.writer = writer
        self.ops = 0


class SpitfireServer:
    """The live serving plane over one shared storage hierarchy."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.registry = MetricsRegistry()
        self.bm = build_buffer_manager(
            self.config.policy, self.config.shape(),
            seed=self.config.seed,
            num_tenants=self.config.num_tenants,
            page_stride=self.config.page_stride,
            fault_plan=self.config.fault_plan,
            registry=self.registry,
        )
        self.hierarchy = self.bm.hierarchy
        self.admission = AdmissionController(self.config.admission)
        #: The live :class:`~repro.obs.server.MetricsServer`, when
        #: ``metrics_port`` is set (http.server loads only then).
        self.metrics = None
        if self.config.metrics_port is not None:
            from ..obs.server import MetricsServer

            self.metrics = MetricsServer(
                self._render_metrics,
                host=self.config.metrics_host,
                port=self.config.metrics_port,
            )

        self._server: asyncio.Server | None = None
        self._sessions: dict[int, _Session] = {}
        self._session_tasks: set[asyncio.Task] = set()
        self._next_session_id = 0
        self._shutdown = asyncio.Event()
        self._started_at: float | None = None
        self.samples: list[LatencySample] = []
        self.sheds: list[tuple[str, str, str]] = []
        self.crashes = 0
        self.recovered_pages = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        if self._server is None:
            return self.config.port
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "SpitfireServer":
        if self._server is not None:
            raise RuntimeError("server is already running")
        loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self._started_at = loop.time()
        if self.metrics is not None:
            self.metrics.start()
            # The plane is ready the moment the listener is bound and
            # the shared buffer manager exists — no warm-up phase.
            self.metrics.mark_ready()
        return self

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger a graceful drain (POSIX loops only)."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, self.request_shutdown)

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def wait_shutdown(self) -> None:
        await self._shutdown.wait()

    async def shutdown(self) -> dict:
        """Graceful drain; returns the drain summary.

        Order matters: stop accepting, refuse new admissions, end the
        sessions, then flush.  An op runs whole between two awaits, so a
        cancelled session never leaves one half-run: every admitted op
        is counted and its effect is on stable storage before the
        summary claims success.
        """
        loop = asyncio.get_running_loop()
        if self._server is not None:
            self._server.close()
        self.admission.begin_drain()
        for task in list(self._session_tasks):
            task.cancel()
        await asyncio.gather(*self._session_tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        flushed = self.bm.flush_all()
        makespan_s = (loop.time() - self._started_at
                      if self._started_at is not None else 0.0)
        report = build_slo_report(
            self.samples,
            sheds=self.sheds,
            makespan_s=makespan_s,
            config=self.describe(),
        )
        if self.config.slo_out:
            from .slo import slo_report_json

            with open(self.config.slo_out, "w", encoding="utf-8") as out:
                out.write(slo_report_json(report))
        if self.metrics is not None:
            self.metrics.stop()
        self._server = None
        return {
            "served": len(self.samples),
            "shed": len(self.sheds),
            "flushed_pages": flushed,
            "crashes": self.crashes,
            "sim_ns": round(self.hierarchy.cost.total_ns, 3),
            "slo": report,
        }

    def describe(self) -> dict:
        """A JSON-able self-description (hello response / SLO config)."""
        return {
            "policy": self.config.policy,
            "shape": {
                "dram_gb": self.config.dram_gb,
                "nvm_gb": self.config.nvm_gb,
                "ssd_gb": self.config.ssd_gb,
            },
            "num_tenants": self.config.num_tenants,
            "page_stride": self.config.page_stride,
            "seed": self.config.seed,
            "admission": {
                "enabled": self.config.admission.enabled,
                "rate_ops_per_s": self.config.admission.rate_ops_per_s,
            },
            "faults": (self.config.fault_plan is not None
                       and not self.config.fault_plan.is_noop),
        }

    # ------------------------------------------------------------------
    # Data ops: validated off the wire, then run inline
    # ------------------------------------------------------------------
    def _closure_for(self, op: str, message: dict, tenant_id: int):
        """Validate one data op off the wire and build its closure.

        An access starts inside its page and moves at most a page:
        ``offset < page_size`` and ``1 <= nbytes <= page_size``.  A span
        may run past the page end (the YCSB layout's last slot does), but
        one request can no longer charge the shared timeline for a
        terabyte.  Every page must lie in the session tenant's range
        (``bm.tenant_of``): a tenant is its page range, so one session
        can neither touch nor consult the admission queue of another
        tenant's pages.
        """
        bm = self.bm
        page_size = self.hierarchy.page_size

        def own_page(page_id: int) -> int:
            if bm.tenant_of(page_id) != tenant_id:
                raise protocol.ProtocolError(
                    f"page {page_id} is outside tenant {tenant_id}'s range")
            return page_id

        if op in ("read", "write"):
            page_id = own_page(_int_field(message, "page_id"))
            offset = _int_field(message, "offset", default=0,
                                maximum=page_size - 1)
            nbytes = _int_field(message, "nbytes", default=64, minimum=1,
                                maximum=page_size)
            is_write = op == "write"

            def data_op():
                execute_op(bm, is_write, page_id, offset, nbytes)
                return {}

            return data_op
        if op == "read_batch":
            page_ids = _int_list(message, "page_ids", MAX_BATCH_PAGES)
            for page_id in page_ids:
                own_page(page_id)
            offsets = _int_list(message, "offsets", MAX_BATCH_PAGES,
                                maximum=page_size - 1)
            if len(offsets) != len(page_ids):
                raise protocol.ProtocolError(
                    "page_ids and offsets must have equal length")
            nbytes = _int_field(message, "nbytes", default=64, minimum=1,
                                maximum=page_size)

            def batch_op():
                bm.allocate_pages(page_ids)
                bm.read_batch(page_ids, offsets, nbytes)
                return {"pages": len(page_ids)}

            return batch_op
        if op == "txn":
            ops = message.get("ops")
            if not isinstance(ops, list) or not ops \
                    or len(ops) > MAX_TXN_OPS:
                raise protocol.ProtocolError(
                    f"txn needs 1..{MAX_TXN_OPS} ops")
            steps = []
            for sub in ops:
                if not isinstance(sub, dict) \
                        or sub.get("kind") not in ("read", "write"):
                    raise protocol.ProtocolError(
                        "txn ops need kind read|write")
                steps.append((
                    sub["kind"] == "write",
                    own_page(_int_field(sub, "page_id")),
                    _int_field(sub, "offset", default=0,
                               maximum=page_size - 1),
                    _int_field(sub, "nbytes", default=64, minimum=1,
                               maximum=page_size),
                ))

            def txn_op():
                # No await between the steps: no other session's op
                # interleaves with this transaction.
                for is_write, page_id, offset, nbytes in steps:
                    execute_op(bm, is_write, page_id, offset, nbytes)
                return {"ops": len(steps)}

            return txn_op
        raise protocol.ProtocolError(f"unhandled data op {op!r}")

    def _crash(self) -> dict:
        self.bm.simulate_crash()
        recovered = self.bm.recover_mapping_table()
        report = check_mapping_consistency(self.bm)
        self.crashes += 1
        self.recovered_pages += recovered
        self.registry.counter("serve_crashes_total").inc()
        return {
            "recovered_pages": recovered,
            "invariants_ok": report.ok,
            "violations": len(report.violations),
        }

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    async def _handle_client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._session_tasks.add(task)
        session = _Session(self._next_session_id, writer)
        self._next_session_id += 1
        self._sessions[session.session_id] = session
        self.registry.counter("serve_sessions_total").inc()
        try:
            await self._session_loop(reader, writer, session)
        except (asyncio.CancelledError, ConnectionResetError,
                BrokenPipeError):
            pass
        finally:
            self._sessions.pop(session.session_id, None)
            self._session_tasks.discard(task)
            writer.close()
            try:
                await asyncio.wait_for(writer.wait_closed(), CLOSE_GRACE_S)
            except (Exception, asyncio.CancelledError):
                pass
            finally:
                writer.transport.abort()  # a no-op once the close flushed

    async def _session_loop(self, reader, writer, session: _Session) -> None:
        while True:
            try:
                message = await protocol.read_frame(reader)
            except protocol.ProtocolError:
                # Torn frame: the stream is unusable, drop the session.
                return
            if message is None:
                return
            try:
                op, seq = protocol.validate_request(message)
            except protocol.ProtocolError as exc:
                await protocol.write_frame(writer, protocol.error_response(
                    -1, protocol.ERR_BAD_REQUEST, str(exc)))
                continue
            if seq <= session.last_seq:
                await protocol.write_frame(writer, protocol.error_response(
                    seq, protocol.ERR_BAD_SEQ,
                    f"seq {seq} does not advance past {session.last_seq}"))
                continue
            session.last_seq = seq
            response = self._serve_op(op, seq, message, session)
            await protocol.write_frame(writer, response)
            if op == "goodbye":
                return

    def _serve_op(self, op: str, seq: int, message: dict,
                  session: _Session) -> dict:
        """Answer one request.  Synchronous on purpose: nothing else runs
        on the loop until it returns, which is the serial op order."""
        if op == "hello":
            tenant = message.get("tenant", 0)
            if not isinstance(tenant, int) or isinstance(tenant, bool) \
                    or not 0 <= tenant < self.config.num_tenants:
                return protocol.error_response(
                    seq, protocol.ERR_BAD_REQUEST,
                    f"tenant must be in [0, {self.config.num_tenants})")
            session.tenant_id = tenant
            return protocol.ok_response(
                seq, session=session.session_id, server=self.describe())
        if op == "ping":
            return protocol.ok_response(seq, pong=True)
        if op == "stats":
            return protocol.ok_response(seq, stats=self.stats())
        if op == "goodbye":
            return protocol.ok_response(seq, ops=session.ops)
        if op == "crash":
            try:
                return protocol.ok_response(seq, **self._crash())
            except Exception as exc:
                return protocol.error_response(
                    seq, protocol.ERR_INTERNAL, f"crash failed: {exc}")

        # Data ops: validate → admit → run → release → account.
        try:
            run = self._closure_for(op, message, session.tenant_id)
        except protocol.ProtocolError as exc:
            return protocol.error_response(
                seq, protocol.ERR_BAD_REQUEST, str(exc))
        tenant_name = f"tenant-{session.tenant_id}"
        try:
            self.admission.try_admit(session.tenant_id, time.perf_counter())
        except Overloaded as exc:
            self.sheds.append((tenant_name, op, exc.reason.value))
            self.registry.counter("serve_shed_total", {
                "tenant": tenant_name, "reason": exc.reason.value,
            }).inc()
            kind = (protocol.ERR_SHUTTING_DOWN
                    if exc.reason is OverloadReason.DRAINING
                    else protocol.ERR_OVERLOADED)
            return protocol.error_response(
                seq, kind, str(exc), reason=exc.reason.value)
        started = time.perf_counter()
        sim_before = self.hierarchy.cost.total_ns
        try:
            payload = run()
        except DeviceGaveUpError as exc:
            return protocol.error_response(
                seq, protocol.ERR_INTERNAL, f"device gave up: {exc}")
        except Exception as exc:
            return protocol.error_response(
                seq, protocol.ERR_INTERNAL, f"{type(exc).__name__}: {exc}")
        finally:
            self.admission.release(session.tenant_id)
        latency_ns = (time.perf_counter() - started) * 1e9
        session.ops += 1
        # Nothing waits inside the server: the live wait is 0.
        self.samples.append(LatencySample(tenant_name, op, latency_ns))
        self.registry.counter("serve_requests_total", {
            "tenant": tenant_name, "op": op,
        }).inc()
        return protocol.ok_response(
            seq,
            latency_ns=round(latency_ns, 3),
            sim_ns=round(self.hierarchy.cost.total_ns - sim_before, 3),
            **payload,
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "served": len(self.samples),
            "shed": len(self.sheds),
            "sessions_open": len(self._sessions),
            "crashes": self.crashes,
            "recovered_pages": self.recovered_pages,
            "sim_ns": round(self.hierarchy.cost.total_ns, 3),
            "admission": self.admission.snapshot(),
        }

    def _render_metrics(self) -> str:
        self.registry.gauge("serve_sessions_open").set(
            len(self._sessions))
        self.registry.gauge("serve_served").set(len(self.samples))
        return prometheus_text(self.registry)


# ----------------------------------------------------------------------
# Field validation helpers
# ----------------------------------------------------------------------
def _int_field(message: dict, name: str, default: int | None = None,
               minimum: int = 0, maximum: int | None = None) -> int:
    value = message.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum or (maximum is not None and value > maximum):
        bounds = (f">= {minimum}" if maximum is None
                  else f"in [{minimum}, {maximum}]")
        raise protocol.ProtocolError(
            f"{name} must be an integer {bounds}, got {value!r}")
    return value


def _int_list(message: dict, name: str, limit: int,
              maximum: int | None = None) -> list[int]:
    value = message.get(name)
    if not isinstance(value, list) or not value or len(value) > limit:
        raise protocol.ProtocolError(
            f"{name} must be a non-empty list of at most {limit} ints")
    for item in value:
        if not isinstance(item, int) or isinstance(item, bool) or item < 0 \
                or (maximum is not None and item > maximum):
            bound = "" if maximum is None else f" and <= {maximum}"
            raise protocol.ProtocolError(
                f"{name} entries must be integers >= 0{bound}")
    return value
