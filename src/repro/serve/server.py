"""The serving plane: one shared buffer manager, many client sessions.

:class:`SpitfireServer` binds an asyncio stream server speaking the
:mod:`~repro.serve.protocol` framing, builds one
:class:`~repro.core.buffer_manager.BufferManager` over one simulated
:class:`~repro.hardware.cost_model.StorageHierarchy`, and serves every
connected session from it concurrently.

The load-bearing design rule is the **single dispatch discipline**: the
buffer manager and its cost accounting are deterministic for a *serial*
op order, so every data op — from any session — funnels through one
``asyncio.Queue`` consumed by one dispatcher task.  Sessions overlap on
the network; buffer-manager work never does.  A ``txn`` op executes its
sub-ops back-to-back inside one dispatch slot, giving sessions a cheap
atomicity unit without a lock manager.

Around that serial core:

* **admission control** (:mod:`~repro.serve.admission`): every data op
  passes ``try_admit`` before it may enqueue; refusals become typed
  ``overloaded`` / ``shutting_down`` protocol errors instead of
  unbounded queue growth,
* **chaos**: an optional :class:`~repro.faults.plan.FaultPlan` wraps
  the devices (before the buffer manager is built, as the injector
  requires) so device faults fire under live load; the ``crash`` op
  drops volatile state, recovers the mapping table, and runs the
  invariant sweep — while other sessions stay connected,
* **observability**: a :class:`~repro.obs.server.MetricsServer` serves
  ``/metrics`` (request/shed/session counters plus any fault-layer
  counters sharing the registry), ``/healthz``, and ``/readyz``,
* **graceful drain**: SIGTERM/SIGINT stop the listener, flip admission
  into drain mode, let in-flight dispatch finish, flush all dirty
  pages, and emit a final SLO report of everything served.
"""

from __future__ import annotations

import asyncio
import signal
from dataclasses import dataclass, field

from ..core.buffer_manager import BufferManager, BufferManagerConfig
from ..core.tenancy import TenancyConfig
from ..faults.injector import inject_faults
from ..faults.invariants import check_mapping_consistency
from ..faults.plan import DeviceGaveUpError, FaultPlan
from ..hardware.cost_model import StorageHierarchy
from ..hardware.pricing import HierarchyShape
from ..hardware.specs import DEFAULT_SCALE
from ..obs.export import prometheus_text
from ..obs.metrics import MetricsRegistry
from ..obs.server import MetricsServer
from . import protocol
from .admission import AdmissionConfig, AdmissionController, Overloaded, OverloadReason
from .slo import LatencySample, build_slo_report

__all__ = ["ServeConfig", "SpitfireServer", "execute_op"]

#: Longest ``txn`` op list one dispatch slot may hold.
MAX_TXN_OPS = 128
#: Longest ``read_batch`` a single request may carry.
MAX_BATCH_PAGES = 4096


def execute_op(bm: BufferManager, is_write: bool, page_id: int, offset: int,
               nbytes: int, tenant_id: int, think_ns: float = 0.0) -> None:
    """Serve one read or write — the live dispatcher and the twin
    (:func:`repro.serve.bench.simulate_serving`) both run exactly this.

    Pages are allocated on first touch (TPC-C insert regions grow, live
    clients may name any page of their range); ``think_ns`` is charged
    as CPU service after the access.  The wire protocol has no think
    field, so the live server always passes 0.
    """
    if not bm.page_exists(page_id):
        bm.allocate_page(page_id)
    if is_write:
        bm.write(page_id, offset, nbytes, tenant_id)
    else:
        bm.read(page_id, offset, nbytes, tenant_id)
    if think_ns:
        bm.hierarchy.charge_cpu(think_ns)


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
        from ..core.policy import POLICY_PRESETS

        try:
            policy = POLICY_PRESETS[self.config.policy]
        except KeyError:
            raise ValueError(
                f"unknown policy preset {self.config.policy!r}; "
                f"choose from {sorted(POLICY_PRESETS)}"
            ) from None
        self.registry = MetricsRegistry()
        self.hierarchy = StorageHierarchy(
            self.config.shape(), DEFAULT_SCALE
        )
        self.fault_handle = None
        if self.config.fault_plan is not None \
                and not self.config.fault_plan.is_noop:
            # Devices must be wrapped before the buffer manager is
            # built — core components capture device refs at build time.
            self.fault_handle = inject_faults(
                self.hierarchy, self.config.fault_plan, self.registry
            )
        self.bm = BufferManager(
            self.hierarchy,
            policy,
            BufferManagerConfig(
                seed=self.config.seed,
                tenancy=TenancyConfig(
                    num_tenants=self.config.num_tenants,
                    page_stride=self.config.page_stride,
                ),
            ),
        )
        self.admission = AdmissionController(self.config.admission)
        self.metrics: MetricsServer | None = None
        if self.config.metrics_port is not None:
            self.metrics = MetricsServer(
                self._render_metrics,
                host=self.config.metrics_host,
                port=self.config.metrics_port,
            )

        self._server: asyncio.Server | None = None
        self._dispatcher: asyncio.Task | None = None
        self._queue: asyncio.Queue = asyncio.Queue()
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
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="serve-dispatch"
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

        Order matters: stop accepting, refuse new admissions, let the
        dispatch queue run dry, then flush — so every admitted op's
        effect is on stable storage before the summary claims success.
        """
        loop = asyncio.get_running_loop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self.admission.begin_drain()
        await self._queue.join()
        if self._dispatcher is not None:
            self._queue.put_nowait(None)
            await self._dispatcher
            self._dispatcher = None
        for task in list(self._session_tasks):
            task.cancel()
        if self._session_tasks:
            await asyncio.gather(*self._session_tasks,
                                 return_exceptions=True)
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
                "max_queue_depth": self.config.admission.max_queue_depth,
                "rate_ops_per_s": self.config.admission.rate_ops_per_s,
            },
            "faults": (self.config.fault_plan is not None
                       and not self.config.fault_plan.is_noop),
        }

    # ------------------------------------------------------------------
    # The single dispatcher
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            item = await self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            closure, future, enqueued_at = item
            started_at = loop.time()
            sim_before = self.hierarchy.cost.total_ns
            try:
                payload = closure()
            except Exception as exc:
                if not future.cancelled():
                    future.set_exception(exc)
            else:
                finished_at = loop.time()
                if not future.cancelled():
                    future.set_result((
                        payload,
                        (started_at - enqueued_at) * 1e9,
                        (finished_at - enqueued_at) * 1e9,
                        self.hierarchy.cost.total_ns - sim_before,
                    ))
            finally:
                self._queue.task_done()

    async def _dispatch(self, closure):
        """Run one closure in the serial dispatch order."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._queue.put_nowait((closure, future, loop.time()))
        return await future

    # ------------------------------------------------------------------
    # Data-op closures (run inside the dispatcher, serially)
    # ------------------------------------------------------------------
    def _closure_for(self, op: str, message: dict, tenant_id: int):
        bm = self.bm
        if op in ("read", "write"):
            page_id = _int_field(message, "page_id")
            offset = _int_field(message, "offset", default=0)
            nbytes = _int_field(message, "nbytes", default=64, minimum=1)
            is_write = op == "write"

            def data_op():
                execute_op(bm, is_write, page_id, offset, nbytes, tenant_id)
                return {}

            return data_op
        if op == "read_batch":
            page_ids = _int_list(message, "page_ids", MAX_BATCH_PAGES)
            offsets = _int_list(message, "offsets", MAX_BATCH_PAGES)
            if len(offsets) != len(page_ids):
                raise protocol.ProtocolError(
                    "page_ids and offsets must have equal length")
            nbytes = _int_field(message, "nbytes", default=64, minimum=1)

            def batch_op():
                bm.allocate_pages(page_ids)
                bm.read_batch(page_ids, offsets, nbytes, tenant_id)
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
                    _int_field(sub, "page_id"),
                    _int_field(sub, "offset", default=0),
                    _int_field(sub, "nbytes", default=64, minimum=1),
                ))

            def txn_op():
                # All steps execute inside one dispatch slot: no other
                # session's op interleaves with this transaction.
                for is_write, page_id, offset, nbytes in steps:
                    execute_op(bm, is_write, page_id, offset, nbytes,
                               tenant_id)
                return {"ops": len(steps)}

            return txn_op
        raise protocol.ProtocolError(f"unhandled data op {op!r}")

    def _crash_closure(self):
        def crash_op():
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

        return crash_op

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
                await writer.wait_closed()
            except Exception:
                pass

    async def _session_loop(self, reader, writer, session: _Session) -> None:
        loop = asyncio.get_running_loop()
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
            response = await self._serve_op(op, seq, message, session, loop)
            await protocol.write_frame(writer, response)
            if op == "goodbye":
                return

    async def _serve_op(self, op: str, seq: int, message: dict,
                        session: _Session, loop) -> dict:
        tenant_name = f"tenant-{session.tenant_id}"
        if op == "hello":
            tenant = message.get("tenant", 0)
            if not isinstance(tenant, int) \
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
                payload = (await self._dispatch(self._crash_closure()))[0]
            except Exception as exc:
                return protocol.error_response(
                    seq, protocol.ERR_INTERNAL, f"crash failed: {exc}")
            return protocol.ok_response(seq, **payload)

        # Data ops: validate → admit → dispatch → account.
        try:
            closure = self._closure_for(op, message, session.tenant_id)
        except protocol.ProtocolError as exc:
            return protocol.error_response(
                seq, protocol.ERR_BAD_REQUEST, str(exc))
        try:
            self.admission.try_admit(session.tenant_id, loop.time())
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
        try:
            payload, wait_ns, latency_ns, sim_ns = \
                await self._dispatch(closure)
        except DeviceGaveUpError as exc:
            return protocol.error_response(
                seq, protocol.ERR_INTERNAL, f"device gave up: {exc}")
        except protocol.ProtocolError as exc:
            return protocol.error_response(
                seq, protocol.ERR_BAD_REQUEST, str(exc))
        except Exception as exc:
            return protocol.error_response(
                seq, protocol.ERR_INTERNAL, f"{type(exc).__name__}: {exc}")
        finally:
            self.admission.release(session.tenant_id)
        session.ops += 1
        self.samples.append(LatencySample(
            tenant=tenant_name,
            kind=op,
            latency_ns=latency_ns,
            wait_ns=wait_ns,
        ))
        self.registry.counter("serve_requests_total", {
            "tenant": tenant_name, "op": op,
        }).inc()
        return protocol.ok_response(
            seq,
            latency_ns=round(latency_ns, 3),
            sim_ns=round(sim_ns, 3),
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
            "in_flight": self.admission.in_flight,
            "crashes": self.crashes,
            "recovered_pages": self.recovered_pages,
            "sim_ns": round(self.hierarchy.cost.total_ns, 3),
            "admission": self.admission.snapshot(),
        }

    def _render_metrics(self) -> str:
        self.registry.gauge("serve_sessions_open").set(
            len(self._sessions))
        self.registry.gauge("serve_inflight").set(
            self.admission.in_flight)
        self.registry.gauge("serve_served").set(len(self.samples))
        return prometheus_text(self.registry)


# ----------------------------------------------------------------------
# Field validation helpers
# ----------------------------------------------------------------------
def _int_field(message: dict, name: str, default: int | None = None,
               minimum: int = 0) -> int:
    value = message.get(name, default)
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum:
        raise protocol.ProtocolError(
            f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _int_list(message: dict, name: str, limit: int) -> list[int]:
    value = message.get(name)
    if not isinstance(value, list) or not value or len(value) > limit:
        raise protocol.ProtocolError(
            f"{name} must be a non-empty list of at most {limit} ints")
    for item in value:
        if not isinstance(item, int) or isinstance(item, bool) or item < 0:
            raise protocol.ProtocolError(
                f"{name} entries must be non-negative integers")
    return value
