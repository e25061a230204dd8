"""The live serving plane: sessions, shedding, chaos, graceful drain.

These tests run a real :class:`~repro.serve.server.SpitfireServer` on a
loopback socket inside ``asyncio.run`` — wall-clock, so they assert
behaviour (responses, invariants, drain ordering), never exact bytes;
the byte-deterministic contracts live in ``test_serve_bench.py``.  The
one exception is simulated cost, which the wall clock cannot touch:
:class:`TestLiveMatchesTwin` holds the live server to the virtual-time
twin op for op.
"""

import asyncio
import struct
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import tenant_breakdown
from repro.core.events import EventType
from repro.faults.plan import FaultPlan
from repro.obs.hub import MetricsHub
from repro.serve import protocol
from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.hardware.pricing import HierarchyShape
from repro.serve.bench import (
    ServeBenchConfig,
    default_tenants,
    simulate_serving,
)
from repro.serve import server as server_module
from repro.serve.loadgen import LoadSpec, build_schedule, drive_server
from repro.serve.server import (
    ServeConfig,
    SpitfireServer,
    build_buffer_manager,
    execute_op,
)
from repro.workloads.tenancy import TenantSpec


#: Pages per tenant range on a default-config server.
STRIDE = ServeConfig().page_stride


def own(tenant: int, page: int) -> int:
    """Page ``page`` of ``tenant``'s range on a default-config server."""
    return tenant * STRIDE + page


def run(coro):
    return asyncio.run(coro)


async def start_server(**overrides) -> SpitfireServer:
    config = ServeConfig(**{"num_tenants": 3, **overrides})
    server = SpitfireServer(config)
    await server.start()
    return server


class Client:
    """A minimal test client holding one session."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.seq = -1

    @classmethod
    async def connect(cls, server: SpitfireServer, tenant: int = 0):
        reader, writer = await asyncio.open_connection(
            server.host, server.port)
        client = cls(reader, writer)
        response = await client.call("hello", tenant=tenant)
        assert response["ok"], response
        return client

    async def call(self, op: str, **fields) -> dict:
        self.seq += 1
        await protocol.write_frame(
            self.writer, {"op": op, "seq": self.seq, **fields})
        return await protocol.read_frame(self.reader)

    async def send_raw(self, message: dict) -> dict:
        await protocol.write_frame(self.writer, message)
        return await protocol.read_frame(self.reader)

    async def close(self):
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except Exception:
            pass


class TestSessions:
    def test_hello_describes_the_plane(self):
        async def scenario():
            server = await start_server()
            try:
                client = await Client.connect(server, tenant=1)
                response = await client.call("ping")
                assert response["pong"] is True
                goodbye = await client.call("goodbye")
                assert goodbye["ok"]
                await client.close()
            finally:
                await server.shutdown()

        run(scenario())

    def test_hello_rejects_out_of_range_tenant(self):
        async def scenario():
            server = await start_server()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                await protocol.write_frame(
                    writer, {"op": "hello", "seq": 0, "tenant": 99})
                response = await protocol.read_frame(reader)
                assert response["error"]["kind"] == protocol.ERR_BAD_REQUEST
                writer.close()
            finally:
                await server.shutdown()

        run(scenario())

    def test_hello_rejects_a_boolean_tenant(self):
        async def scenario():
            server = await start_server()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                await protocol.write_frame(
                    writer, {"op": "hello", "seq": 0, "tenant": True})
                response = await protocol.read_frame(reader)
                assert response["error"]["kind"] == protocol.ERR_BAD_REQUEST
                writer.close()
            finally:
                await server.shutdown()

        run(scenario())

    def test_reads_and_writes_serve_and_report_latency(self):
        async def scenario():
            server = await start_server()
            try:
                client = await Client.connect(server)
                read = await client.call(
                    "read", page_id=5, offset=0, nbytes=64)
                assert read["ok"]
                assert read["latency_ns"] > 0
                assert read["sim_ns"] > 0
                write = await client.call(
                    "write", page_id=5, offset=64, nbytes=64)
                assert write["ok"]
                batch = await client.call(
                    "read_batch", page_ids=[1, 2, 3], offsets=[0, 0, 0],
                    nbytes=64)
                assert batch["pages"] == 3
                txn = await client.call("txn", ops=[
                    {"kind": "read", "page_id": 7},
                    {"kind": "write", "page_id": 7, "offset": 128},
                ])
                assert txn["ops"] == 2
                stats = await client.call("stats")
                assert stats["stats"]["served"] == 4
                await client.close()
            finally:
                await server.shutdown()

        run(scenario())

    def test_seq_regression_rejected_without_killing_session(self):
        async def scenario():
            server = await start_server()
            try:
                client = await Client.connect(server)
                response = await client.send_raw(
                    {"op": "ping", "seq": 0})  # hello already used 0
                assert response["error"]["kind"] == protocol.ERR_BAD_SEQ
                assert (await client.call("ping"))["ok"]  # session lives
                await client.close()
            finally:
                await server.shutdown()

        run(scenario())

    def test_bad_request_fields_get_typed_errors(self):
        async def scenario():
            server = await start_server()
            try:
                client = await Client.connect(server)
                response = await client.call("read", page_id=-1)
                assert response["error"]["kind"] == protocol.ERR_BAD_REQUEST
                response = await client.call("txn", ops=[])
                assert response["error"]["kind"] == protocol.ERR_BAD_REQUEST
                response = await client.call(
                    "read_batch", page_ids=[1], offsets=[1, 2])
                assert response["error"]["kind"] == protocol.ERR_BAD_REQUEST
                await client.close()
            finally:
                await server.shutdown()

        run(scenario())

    def test_access_beyond_one_page_is_refused_uncharged(self):
        """An access starts inside its page and moves at most a page; a
        bigger one is a bad request refused before admission, so it
        charges the shared timeline nothing."""
        async def scenario():
            server = await start_server()
            try:
                client = await Client.connect(server)
                page = server.hierarchy.page_size
                before = server.hierarchy.cost.total_fp
                for op, fields in (
                    ("read", dict(page_id=1, nbytes=2**40)),
                    ("write", dict(page_id=1, offset=page)),
                    ("read_batch", dict(page_ids=[1], offsets=[page])),
                    ("read_batch", dict(page_ids=[1], offsets=[0],
                                        nbytes=page + 1)),
                    ("txn", dict(ops=[{"kind": "read", "page_id": 1,
                                       "nbytes": 2**40}])),
                ):
                    response = await client.call(op, **fields)
                    assert response["error"]["kind"] \
                        == protocol.ERR_BAD_REQUEST, (op, response)
                assert server.hierarchy.cost.total_fp == before
                # YCSB's last tuple slot runs past the page end: served.
                last_slot = await client.call(
                    "read", page_id=1, offset=15 * 1024 + 4, nbytes=1024)
                assert last_slot["ok"], last_slot
                await client.close()
            finally:
                await server.shutdown()

        run(scenario())


class TestTenantRange:
    """A tenant is its page range: a data op naming a page outside the
    session tenant's range is a bad request, refused before admission,
    so it runs, allocates and charges nothing."""

    FOREIGN = (5, own(2, 5))

    @pytest.mark.parametrize("op, fields", [
        ("read", lambda page: dict(page_id=page)),
        ("write", lambda page: dict(page_id=page, offset=64)),
        ("read_batch", lambda page: dict(page_ids=[own(1, 0), page],
                                         offsets=[0, 0])),
        ("txn", lambda page: dict(ops=[{"kind": "write",
                                        "page_id": own(1, 0)},
                                       {"kind": "read", "page_id": page}])),
    ])
    def test_foreign_page_is_refused_uncharged(self, op, fields):
        async def scenario():
            server = await start_server()
            try:
                client = await Client.connect(server, tenant=1)
                before = server.hierarchy.cost.total_fp
                for page in self.FOREIGN:
                    response = await client.call(op, **fields(page))
                    assert response["error"]["kind"] \
                        == protocol.ERR_BAD_REQUEST, (op, response)
                    assert "outside tenant 1" in response["error"]["detail"]
                assert server.hierarchy.cost.total_fp == before
                assert server.stats()["served"] == 0
                assert not any(gate["depth"] for gate in
                               server.admission.snapshot()["tenants"].values())
                assert not any(server.bm.page_exists(page)
                               for page in (own(1, 0), *self.FOREIGN))
                # The same op inside the range is served.
                response = await client.call(op, **fields(own(1, 5)))
                assert response["ok"], response
                await client.close()
            finally:
                await server.shutdown()

        run(scenario())

    @settings(max_examples=200, deadline=None)
    @given(tenant=st.integers(0, 2),
           page_id=st.integers(0, 4 * STRIDE))
    def test_refused_exactly_outside_the_range(self, tenant, page_id):
        """The one rule: refused iff ``bm.tenant_of(page) != tenant`` —
        the last tenant's range runs on past its stride."""
        server = SpitfireServer(ServeConfig(num_tenants=3))
        message = {"page_id": page_id}
        inside = min(page_id // STRIDE, 2) == tenant
        try:
            server._closure_for("read", message, tenant)
        except protocol.ProtocolError:
            assert not inside
        else:
            assert inside


class TestAdmissionLive:
    def test_rate_limited_session_sheds_with_overloaded(self):
        async def scenario():
            server = await start_server(admission=AdmissionConfig(
                max_queue_depth=64, rate_ops_per_s=0.001, burst_ops=2.0))
            try:
                client = await Client.connect(server)
                outcomes = []
                for page in range(4):
                    response = await client.call(
                        "read", page_id=page, nbytes=64)
                    outcomes.append(
                        response.get("ok") or
                        response["error"]["kind"])
                # The burst admits the first two; then the bucket is dry.
                assert outcomes[:2] == [True, True]
                assert outcomes[2:] == [protocol.ERR_OVERLOADED] * 2
                assert len(server.sheds) == 2
                await client.close()
            finally:
                await server.shutdown()

        run(scenario())

    def test_draining_server_sheds_with_shutting_down(self):
        async def scenario():
            server = await start_server()
            try:
                client = await Client.connect(server)
                assert (await client.call("read", page_id=1))["ok"]
                server.admission.begin_drain()
                response = await client.call("read", page_id=2)
                assert response["error"]["kind"] \
                    == protocol.ERR_SHUTTING_DOWN
                await client.close()
            finally:
                await server.shutdown()

        run(scenario())


class TestChaosUnderLoad:
    def test_crash_recovers_with_invariants_while_clients_connected(self):
        async def scenario():
            server = await start_server(fault_plan=FaultPlan.seeded(
                5, horizon_ops=100_000,
                read_error_rate=0.02, write_error_rate=0.02))
            try:
                witness = await Client.connect(server, tenant=1)
                worker = await Client.connect(server, tenant=0)
                for page in range(40):
                    response = await worker.call(
                        "write", page_id=page, nbytes=64)
                    assert response["ok"], response
                crash = await witness.call("crash")
                assert crash["ok"]
                assert crash["invariants_ok"] is True
                assert crash["violations"] == 0
                assert crash["recovered_pages"] > 0
                # Both sessions survive the crash and keep serving.
                assert (await worker.call("read", page_id=3))["ok"]
                assert (await witness.call("ping"))["pong"]
                assert server.crashes == 1
                await worker.close()
                await witness.close()
            finally:
                summary = await server.shutdown()
            assert summary["crashes"] == 1

        run(scenario())


class TestLoadgenDrive:
    def test_fleet_replay_serves_schedule(self):
        async def scenario():
            server = await start_server()
            try:
                schedule = build_schedule(LoadSpec(
                    tenants=default_tenants(3), total_ops=150, seed=4))
                report = await drive_server(
                    server.host, server.port, schedule)
                totals = report["totals"]
                assert totals["admitted"] == len(schedule.arrivals)
                assert totals["shed"] == 0
                assert report["errors"] == []
                assert set(report["tenants"]) \
                    == {"alpha", "beta", "gamma"}
            finally:
                summary = await server.shutdown()
            assert summary["served"] == len(schedule.arrivals)

        run(scenario())


class TestLiveMatchesTwin:
    """``serve-bench`` stands in for the live server in every pinned
    SLO number, on the promise that both execute an op the same way.
    On a think-free schedule (the wire protocol carries no think time)
    replayed strictly in schedule order the promise is exact: every
    reply's simulated cost is the twin's service time, the two buffer
    managers end in the same state, and a hub on each (tracking
    tenants, as on any manager with tenants) saw the same ops from the
    same tenants."""

    #: A skewed read/write tenant plus a TPC-C tenant, whose insert
    #: regions grow past the loaded database (allocate-on-first-touch),
    #: over buffers small enough to miss, migrate and evict.
    TENANTS = (
        TenantSpec(name="kv", kind="ycsb", mix="YCSB-BA", skew=0.7,
                   db_gigabytes=1.0, weight=2.0, seed=3),
        TenantSpec(name="oltp", kind="tpcc", db_gigabytes=1.0, seed=4),
    )

    def test_in_order_replay_agrees_op_for_op(self):
        bench = ServeBenchConfig(
            seed=5, total_ops=600, policy="Spitfire-Lazy",
            dram_gb=0.25, nvm_gb=1.0, ssd_gb=8.0, tenants=self.TENANTS,
            admission=AdmissionConfig(enabled=False))
        schedule = build_schedule(LoadSpec(
            tenants=self.TENANTS, total_ops=bench.total_ops,
            seed=bench.seed))
        assert not any(a.think_ns for a in schedule.arrivals)
        # Not vacuous: some op is the first touch of an unallocated page.
        loaded = set(schedule.initial_page_ids())
        assert any(a.page_id not in loaded for a in schedule.arrivals)

        def load(bm):
            # The twin starts from a loaded database and clean
            # accounting; so must the live plane.
            bm.allocate_pages(schedule.initial_page_ids())
            bm.hierarchy.reset_accounting()
            bm.reset_stats()
            return bm

        twin_bm = load(build_buffer_manager(
            bench.policy, HierarchyShape(bench.dram_gb, bench.nvm_gb,
                                         bench.ssd_gb),
            seed=bench.seed, num_tenants=len(self.TENANTS),
            page_stride=schedule.page_stride))
        twin_hub = MetricsHub().attach(twin_bm)
        samples, sheds, _ = simulate_serving(
            schedule, twin_bm, AdmissionController(bench.admission))
        twin_hub.detach()
        assert not sheds

        async def scenario():
            server = SpitfireServer(ServeConfig(
                policy=bench.policy, dram_gb=bench.dram_gb,
                nvm_gb=bench.nvm_gb, ssd_gb=bench.ssd_gb,
                num_tenants=len(self.TENANTS),
                page_stride=schedule.page_stride, seed=bench.seed,
                admission=bench.admission))
            load(server.bm)
            hub = MetricsHub().attach(server.bm)
            await server.start()
            try:
                sessions = [await Client.connect(server, tenant=tenant)
                            for tenant in range(len(self.TENANTS))]
                sim_ns = []
                for arrival in schedule.arrivals:
                    reply = await sessions[arrival.tenant_id].call(
                        arrival.kind, page_id=arrival.page_id,
                        offset=arrival.offset, nbytes=arrival.nbytes)
                    assert reply["ok"], reply
                    sim_ns.append(reply["sim_ns"])
                for session in sessions:
                    await session.close()
                # Before shutdown: its final flush is not part of the
                # schedule.
                hub.detach()
                return sim_ns, server.bm.stats.snapshot(), hub.snapshot()
            finally:
                await server.shutdown()

        live_sim_ns, live_stats, live_metrics = run(scenario())
        assert live_sim_ns == [round(s.service_ns, 3) for s in samples]
        assert live_stats == twin_bm.stats.snapshot()
        assert live_stats.ssd_fetches > 0 and live_stats.dram_evictions > 0
        assert live_metrics == twin_hub.snapshot()
        ops_by_tenant = {
            tenant: record["ops"] for tenant, record
            in tenant_breakdown(live_metrics).items()
        }
        assert ops_by_tenant == dict(
            Counter(a.tenant_id for a in schedule.arrivals))

    def test_read_batch_allocates_like_execute_op(self):
        """A ``read_batch`` naming unseen pages allocates them on first
        touch, exactly as the twin's per-op reads of the same pages do."""
        existing = range(8)
        page_ids = [0, 40, 1, 5, 41, 40, 2, 6]
        offsets = [0, 64, 128, 0, 0, 192, 64, 0]
        twin = SpitfireServer(ServeConfig()).bm
        twin.allocate_pages(existing)
        for page_id in existing[:4]:
            execute_op(twin, False, page_id, 0, 64)
        for page_id, offset in zip(page_ids, offsets):
            execute_op(twin, False, page_id, offset, 64)

        async def scenario():
            server = SpitfireServer(ServeConfig())
            server.bm.allocate_pages(existing)
            for page_id in existing[:4]:
                execute_op(server.bm, False, page_id, 0, 64)
            await server.start()
            try:
                client = await Client.connect(server)
                reply = await client.call("read_batch", page_ids=page_ids,
                                          offsets=offsets, nbytes=64)
                assert reply["pages"] == len(page_ids)
                await client.close()
                return server.bm.stats.snapshot(), \
                    server.hierarchy.cost.total_fp
            finally:
                await server.shutdown()

        live_stats, live_total_fp = run(scenario())
        assert twin.page_exists(41)
        assert live_stats.ssd_fetches > 0 and live_stats.dram_hits > 0
        assert live_stats == twin.stats.snapshot()
        assert live_total_fp == twin.hierarchy.cost.total_fp


class TestDrain:
    def test_shutdown_flushes_and_reports(self):
        async def scenario():
            server = await start_server()
            client = await Client.connect(server)
            for page in range(10):
                assert (await client.call(
                    "write", page_id=page, nbytes=64))["ok"]
            await client.close()
            server.request_shutdown()
            await server.wait_shutdown()
            summary = await server.shutdown()
            assert summary["served"] == 10
            assert summary["flushed_pages"] > 0
            assert summary["slo"]["totals"]["admitted"] == 10

        run(scenario())

    def test_slo_out_written_on_shutdown(self, tmp_path):
        out = tmp_path / "slo.json"

        async def scenario():
            server = await start_server(slo_out=str(out))
            client = await Client.connect(server)
            assert (await client.call("read", page_id=1))["ok"]
            await client.close()
            return await server.shutdown()

        run(scenario())
        import json

        report = json.loads(out.read_text())
        assert report["totals"]["admitted"] == 1

    def test_metrics_surface_serves_health_and_counters(self):
        async def scenario():
            server = await start_server(metrics_port=0)
            try:
                assert server.metrics.probe("/healthz")[0] == 200
                # serve marks readiness explicitly once listening.
                assert server.metrics.probe("/readyz")[0] == 200
                client = await Client.connect(server, tenant=2)
                assert (await client.call("read", page_id=own(2, 1)))["ok"]
                _, text = await asyncio.to_thread(server.metrics.probe,
                                                  "/metrics")
                assert 'serve_requests_total{op="read",tenant="tenant-2"} 1' \
                    in text
                assert "serve_sessions_open 1" in text
                await client.close()
            finally:
                await server.shutdown()

        run(scenario())


class OpRecorder:
    """A bus observer keeping the page id of every logical op, in order."""

    event_interest = frozenset({EventType.OP_READ, EventType.OP_WRITE})

    def __init__(self):
        self.pages = []

    def apply_event(self, etype, page_id, tier, src, dirty):
        self.pages.append(page_id)


class TestInlineRule:
    """A session runs each admitted op itself, with no await between
    admission and release: ops are serial, a ``txn`` is atomic, and a
    drain never finds one half-run."""

    def test_txn_sub_ops_stay_contiguous_beside_a_reader(self):
        txns, width = 30, 4

        async def scenario():
            server = await start_server()
            recorder = OpRecorder()
            server.bm.events.subscribe(recorder)
            try:
                writer = await Client.connect(server, tenant=0)
                reader = await Client.connect(server, tenant=1)

                async def write_txns():
                    for txn in range(txns):
                        reply = await writer.call("txn", ops=[
                            {"kind": "write" if step % 2 else "read",
                             "page_id": 10_000 + txn * width + step}
                            for step in range(width)])
                        assert reply["ok"], reply

                async def read_pages():
                    for page in range(4 * txns):
                        assert (await reader.call(
                            "read", page_id=own(1, page)))["ok"]

                await asyncio.gather(write_txns(), read_pages())
                await writer.close()
                await reader.close()
            finally:
                server.bm.events.unsubscribe(recorder)
                await server.shutdown()
            return recorder.pages

        pages = run(scenario())
        where = {page: index for index, page in enumerate(pages)}
        for txn in range(txns):
            first = 10_000 + txn * width
            assert [where[first + step] for step in range(width)] \
                == list(range(where[first], where[first] + width)), txn
        # Not vacuous: the reader's ops did land between transactions.
        last_txn_op = where[10_000 + txns * width - 1]
        assert any(page >= STRIDE for page in pages[:last_txn_op])

    def test_drain_under_load_counts_every_served_op(self):
        """``shutdown()`` starts from inside the 150th op, while three
        clients keep sending; every op the buffer manager ran is
        served, and every ok reply a client got is among them."""
        async def scenario():
            server = await start_server()
            loop = asyncio.get_running_loop()
            drains = []

            class DrainAt150(OpRecorder):
                def apply_event(self, *event):
                    super().apply_event(*event)
                    if len(self.pages) == 150:
                        drains.append(loop.create_task(server.shutdown()))

            recorder = DrainAt150()
            server.bm.events.subscribe(recorder)
            clients = [await Client.connect(server, tenant=tenant)
                       for tenant in range(3)]
            ok_replies = []

            async def hammer(client, tenant):
                for page in range(1, 1_000):
                    try:
                        reply = await client.call(
                            "write" if page % 3 == 0 else "read",
                            page_id=own(tenant, page % 200))
                    except (ConnectionError, protocol.ProtocolError):
                        return
                    if reply is None:
                        return
                    if reply["ok"]:
                        ok_replies.append(reply)
                    else:
                        assert reply["error"]["kind"] \
                            == protocol.ERR_SHUTTING_DOWN, reply
                raise AssertionError("the drain never ended the session")

            await asyncio.gather(*(hammer(client, tenant)
                                   for tenant, client in enumerate(clients)))
            summary = await drains[0]
            for client in clients:
                await client.close()
            return summary, len(recorder.pages), len(ok_replies), \
                server.sheds

        summary, executed, ok_seen, sheds = run(scenario())
        assert summary["served"] == executed >= 150
        assert summary["slo"]["totals"]["admitted"] == executed
        assert summary["shed"] == len(sheds)
        assert all(reason == "draining" for _, _, reason in sheds)
        # A session cancelled after running its op but before replying
        # loses at most that one reply: at most one each of three.
        assert ok_seen <= summary["served"] <= ok_seen + 3


class TestBrokenClients:
    """A broken client or a raising op costs only itself."""

    def test_raising_op_fails_only_its_request(self, monkeypatch):
        real = server_module.execute_op

        def execute_or_raise(bm, is_write, page_id, *args, **kwargs):
            if page_id == 666:
                raise RuntimeError("injected")
            return real(bm, is_write, page_id, *args, **kwargs)

        monkeypatch.setattr(server_module, "execute_op", execute_or_raise)

        async def scenario():
            server = await start_server()
            try:
                victim = await Client.connect(server, tenant=0)
                bystander = await Client.connect(server, tenant=1)
                failed = await victim.call("read", page_id=666)
                assert failed["error"]["kind"] == protocol.ERR_INTERNAL
                assert "injected" in failed["error"]["detail"]
                assert not any(gate["depth"] for gate in
                               server.admission.snapshot()["tenants"].values())
                assert (await victim.call("read", page_id=1))["ok"]
                assert (await bystander.call(
                    "write", page_id=own(1, 2)))["ok"]
                assert (await victim.call("txn", ops=[
                    {"kind": "read", "page_id": 3}]))["ok"]
                assert server.stats()["served"] == 3
                await victim.close()
                await bystander.close()
            finally:
                await server.shutdown()

        run(scenario())

    @staticmethod
    async def wait_for_sessions(server, count: int) -> None:
        for _ in range(1_000):
            if server.stats()["sessions_open"] == count:
                return
            await asyncio.sleep(0.001)
        raise AssertionError(f"sessions_open stuck at "
                             f"{server.stats()['sessions_open']}")

    def test_disconnect_mid_frame_leaves_others_served(self):
        async def scenario():
            server = await start_server()
            try:
                witness = await Client.connect(server, tenant=1)
                broken = await Client.connect(server, tenant=0)
                body = protocol.encode_message(
                    {"op": "read", "seq": 1, "page_id": 1})[4:]
                broken.writer.write(struct.pack(">I", len(body)) + body[:5])
                await broken.writer.drain()
                await broken.close()
                await self.wait_for_sessions(server, 1)
                assert (await witness.call("read", page_id=own(1, 1)))["ok"]
                assert server.stats()["served"] == 1
                await witness.close()
            finally:
                await server.shutdown()

        run(scenario())

    def test_disconnect_right_after_a_txn_leaves_others_served(self):
        pages = [500, 501, 502]

        async def scenario():
            server = await start_server()
            try:
                witness = await Client.connect(server, tenant=1)
                gone = await Client.connect(server, tenant=0)
                await protocol.write_frame(gone.writer, {
                    "op": "txn", "seq": 1,
                    "ops": [{"kind": "write", "page_id": page}
                            for page in pages]})
                await gone.close()
                await self.wait_for_sessions(server, 1)
                # The whole frame arrived, so the whole txn ran.
                assert all(server.bm.page_exists(page) for page in pages)
                assert (await witness.call(
                    "read", page_id=own(1, pages[0])))["ok"]
                assert (await witness.call("ping"))["pong"]
                await witness.close()
            finally:
                summary = await server.shutdown()
            assert summary["served"] == 2

        run(scenario())

    def test_drain_ends_a_client_that_never_reads(self):
        """A client pipelines far more replies than the socket buffers
        hold and never reads one: the server's last reply cannot flush,
        yet ``shutdown()`` returns within a bound."""
        async def scenario():
            server = await start_server()
            reader, writer = await asyncio.open_connection(
                server.host, server.port)
            try:
                writer.write(b"".join(
                    protocol.encode_message({"op": "stats", "seq": seq})
                    for seq in range(60_000)))
                await self.wait_for_sessions(server, 1)
                session, = server._sessions.values()
                for _ in range(5_000):  # until a reply cannot flush
                    if session.writer.transport.get_write_buffer_size():
                        break
                    await asyncio.sleep(0.001)
                else:
                    raise AssertionError("the replies never backed up")
            finally:
                summary = await asyncio.wait_for(server.shutdown(), 5.0)
                writer.transport.abort()
            assert summary["served"] == 0

        run(scenario())

    def test_half_closed_client_receives_every_reply(self):
        """``write_eof()`` after k requests: the server still answers
        all k before it ends the session."""
        async def scenario():
            server = await start_server()
            try:
                client = await Client.connect(server, tenant=0)
                for page in range(1, 9):
                    client.seq += 1
                    client.writer.write(protocol.encode_message({
                        "op": "write" if page % 2 else "read",
                        "seq": client.seq, "page_id": page}))
                client.writer.write_eof()
                replies = [await protocol.read_frame(client.reader)
                           for _ in range(8)]
                assert await protocol.read_frame(client.reader) is None
                await client.close()
            finally:
                summary = await server.shutdown()
            assert [reply["seq"] for reply in replies] == list(range(1, 9))
            assert all(reply["ok"] for reply in replies)
            assert summary["served"] == 8

        run(scenario())
