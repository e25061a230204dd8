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
from collections import Counter

from repro.bench.harness import tenant_breakdown
from repro.faults.plan import FaultPlan
from repro.obs.hub import MetricsHub
from repro.serve import protocol
from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.bench import (
    ServeBenchConfig,
    _build_bm,
    default_tenants,
    simulate_serving,
)
from repro.serve.loadgen import LoadSpec, build_schedule, drive_server
from repro.serve.server import ServeConfig, SpitfireServer, execute_op
from repro.workloads.tenancy import TenantSpec


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
    managers end in the same state, and a tenant-tracking hub on each
    saw the same ops from the same tenants."""

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
        twin_bm = _build_bm(bench, schedule)
        twin_hub = MetricsHub(track_tenants=True).attach(twin_bm)
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
            # The twin starts from a loaded database and clean
            # accounting; so must the live plane.
            server.bm.allocate_pages(schedule.initial_page_ids())
            server.hierarchy.reset_accounting()
            server.bm.reset_stats()
            hub = MetricsHub(track_tenants=True).attach(server.bm)
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
            execute_op(twin, False, page_id, 0, 64, 0)
        for page_id, offset in zip(page_ids, offsets):
            execute_op(twin, False, page_id, offset, 64, 0)

        async def scenario():
            server = SpitfireServer(ServeConfig())
            server.bm.allocate_pages(existing)
            for page_id in existing[:4]:
                execute_op(server.bm, False, page_id, 0, 64, 0)
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
                assert (await client.call("read", page_id=1))["ok"]
                text = await asyncio.to_thread(server.metrics.scrape)
                assert 'serve_requests_total{op="read",tenant="tenant-2"} 1' \
                    in text
                assert "serve_sessions_open 1" in text
                await client.close()
            finally:
                await server.shutdown()

        run(scenario())
