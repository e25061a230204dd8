"""The five workloads: what is run, why, and how its output is checked.

Each workload is one fixed unit of work (a *repetition*) built from
``--seed``; the runner times repetitions of it.  The program under test
receives only the generated inputs — a ``Cell`` spec, a CLI command
line, a request schedule.

Sizes (the §6.3 hierarchy, ``POLICY_SHAPE``: 12.5 GB DRAM = 800 frames,
50 GB NVM = 3,200 frames at ``DEFAULT_SCALE``; policy Spitfire-Lazy):

=============  =====================================================
ycsb_ro_hit    YCSB-RO, 8 GB database (512 pages, fits DRAM), skew
               0.3, 15,000 warm-up + 45,000 measured ops
ycsb_ro_miss   YCSB-RO, 100 GB database (6,400 pages, 1.6x DRAM+NVM),
               skew 0.3, 8,000 + 16,000 ops
tpcc_wal       TPC-C, 100 GB, WAL on, checkpoint every 2,000 writes,
               8,000 + 16,000 ops
suite_cli      ``python -m repro.cli fig11 recovery --jobs 1 --out TMP
               --metrics-out TMP/metrics.prom`` (op count = fig11's
               4 x 23,000 cell ops)
serve_live     in-process SpitfireServer (2 tenants, 1/4/32 GB), 2
               closed-loop clients over loopback, 1,000 warm + 6,000
               timed requests
=============  =====================================================

Repetitions are about 1-2 s each (``suite_cli``: 8 s) so that several
fit in one ``--seconds`` window on a 2-core sandbox; ``--smoke`` runs
2 % of the op counts.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
GOLDEN = ROOT / "benchmarks" / "results"

#: Smoke runs and the warm repetition use this share of the op counts.
SMOKE_DIVISOR = 50


def child_env() -> dict:
    """Environment for child interpreters: ``repro`` from this checkout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


@dataclass
class Rep:
    """One repetition's outcome."""

    wall_s: float
    #: Ops whose failure is counted (``failed`` of ``attempted``).
    attempted: int
    failed: int = 0
    #: Workload-specific outputs: digests, results, latencies, errors.
    info: dict = field(default_factory=dict)


class Workload:
    name: str
    why: str
    #: The stated op count one repetition's wall is divided into.
    ops: int
    #: Whether the measured work runs in child processes (whose peak
    #: RSS is then the one to report).
    in_children = False

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke

    def probe_argv(self, runner: Path) -> list[str]:
        """A fresh process that sets up and runs the warm repetition."""
        argv = [sys.executable, str(runner), "--workload", self.name,
                "--seed", str(self.seed), "--probe"]
        return argv + ["--smoke"] if self.smoke else argv

    def warm(self) -> None:
        """One reduced, untimed repetition: fills caches, lazy imports."""

    def repetition(self, tracer=None, diagnostics: bool = False) -> Rep:
        """One timed unit of work; ``diagnostics`` adds untimed extras."""
        raise NotImplementedError

    def check(self, reps: list[Rep], expected: dict | None) -> str | None:
        """A problem that fails every op of the run, or None."""
        return None

    def distinct_pages(self) -> int:
        return 0

    def counts(self, untraced: Rep, traced: Rep) -> dict:
        """Workload-specific per-layer counts of a ``--trace`` run."""
        return {}


# ----------------------------------------------------------------------
# The three bare cells
# ----------------------------------------------------------------------
def result_digest(result) -> str:
    """SHA-256 over everything simulated a cell reports."""
    payload = json.dumps([
        repr(result.throughput), repr(result.makespan_ns),
        result.stats.as_dict(), repr(result.nvm_write_gb),
        result.resource_usage,
    ], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class CellWorkload(Workload):
    kind = "ycsb"
    db_gb: float
    warmup_ops: int
    measure_ops: int

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        from repro.bench.executor import Cell, Effort
        from repro.bench.experiments.common import POLICY_SHAPE
        from repro.core.policy import SPITFIRE_LAZY

        small = Effort(self.warmup_ops // SMOKE_DIVISOR,
                       self.measure_ops // SMOKE_DIVISOR)
        effort = small if smoke else Effort(self.warmup_ops, self.measure_ops)
        if self.kind == "ycsb":
            self.cell = Cell.ycsb(self.name, POLICY_SHAPE, SPITFIRE_LAZY,
                                  "YCSB-RO", self.db_gb, skew=0.3,
                                  workload_seed=seed, effort=effort)
        else:
            self.cell = Cell.tpcc(self.name, POLICY_SHAPE, SPITFIRE_LAZY,
                                  self.db_gb, workload_seed=seed,
                                  effort=effort)
        self.warm_cell = replace(self.cell, effort=small)
        self.ops = effort.warmup_ops + effort.measure_ops

    def warm(self) -> None:
        from repro.bench import executor

        executor.run_cell(self.warm_cell)

    def repetition(self, tracer=None, diagnostics: bool = False) -> Rep:
        from repro.bench import executor

        started = time.perf_counter()
        try:
            # Looked up on the module so a traced run times it.
            result = executor.run_cell(self.cell)
        except Exception as exc:  # a raised cell fails all its ops
            return Rep(time.perf_counter() - started, self.ops, self.ops,
                       {"error": f"{type(exc).__name__}: {exc}"})
        wall = time.perf_counter() - started
        info = {"digest": result_digest(result),
                "sim_ops_per_s": result.throughput, "result": result}
        measured = result.stats.reads + result.stats.writes
        failed = 0
        if measured != self.cell.effort.measure_ops:
            failed = self.ops
            info["error"] = (f"measured {measured} ops, expected "
                             f"{self.cell.effort.measure_ops}")
        return Rep(wall, self.ops, failed, info)

    def check(self, reps: list[Rep], expected: dict | None) -> str | None:
        digests = {rep.info.get("digest") for rep in reps}
        if len(digests) != 1:
            return f"digests differ across repetitions: {sorted(map(str, digests))}"
        if expected is not None:
            (digest,) = digests
            if digest != expected.get("digest"):
                return (f"digest {digest} != expected.json "
                        f"{expected.get('digest')}")
            if reps[0].info["sim_ops_per_s"] != expected.get("sim_ops_per_s"):
                return "sim_ops_per_s differs from expected.json"
        return None

    def distinct_pages(self) -> int:
        from repro.bench.executor import TUPLES_PER_PAGE
        from repro.workloads.tpcc import TpccWorkload
        from repro.workloads.ycsb import MIXES, YcsbWorkload

        spec, scale = self.cell.workload, self.cell.scale
        if self.kind == "ycsb":
            stream = YcsbWorkload(scale.pages(spec.db_gb) * TUPLES_PER_PAGE,
                                  mix=MIXES[spec.mix], skew=spec.skew,
                                  seed=spec.seed)
            return len({stream.page_of(stream.next_op().key)
                        for _ in range(self.ops)})
        stream = TpccWorkload(db_gigabytes=spec.db_gb, scale=scale,
                              seed=spec.seed)
        pages: set[int] = set()
        seen = 0
        while seen < self.ops:
            accesses = stream.next_transaction()[:self.ops - seen]
            pages.update(access.page_id for access in accesses)
            seen += len(accesses)
        return len(pages)


class YcsbRoHit(CellWorkload):
    name = "ycsb_ro_hit"
    why = ("YCSB-RO over an 8 GB table that fits DRAM: 100 % DRAM hits, no "
           "SSD fetch, no WAL - only generation, the read hit path, events "
           "and device charging run; miss/WAL changes must not move it")
    db_gb, warmup_ops, measure_ops = 8.0, 15_000, 45_000


class YcsbRoMiss(CellWorkload):
    name = "ycsb_ro_miss"
    why = ("YCSB-RO over a 100 GB table, 1.6x DRAM+NVM, the one working set "
           "larger than the buffers: ~37 % of reads fetch from SSD with an "
           "eviction each, still no WAL - miss/evict/migration dominate")
    db_gb, warmup_ops, measure_ops = 100.0, 8_000, 16_000


class TpccWal(CellWorkload):
    name = "tpcc_wal"
    kind = "tpcc"
    why = ("TPC-C over 100 GB with the WAL on: ~52 % writes, each charging "
           "a log append + commit, checkpoints every 2,000 writes, plus "
           "transaction generation - the only bare cell that logs")
    db_gb, warmup_ops, measure_ops = 100.0, 8_000, 16_000


def cell_counts(results: list) -> dict:
    """Per-layer counts from the public fields of the run's RunResults."""
    if not results:
        return {}
    reads = sum(r.stats.reads for r in results)
    writes = sum(r.stats.writes for r in results)

    def stat(name):
        return sum(getattr(r.stats, name) for r in results)

    def usage(resource, key):
        return sum((r.resource_usage or {}).get(resource, {}).get(key, 0)
                   for r in results)

    return {
        "core.dram_hit_ratio": stat("dram_hits") / max(1, reads + writes),
        "core.nvm_hits": stat("nvm_hits"),
        "core.ssd_fetches": stat("ssd_fetches"),
        "core.dram_evictions": stat("dram_evictions"),
        "core.nvm_evictions": stat("nvm_evictions"),
        "core.upward_migrations": stat("upward_migrations"),
        "core.downward_migrations": stat("downward_migrations"),
        "core.dirty_page_flushes": stat("dirty_page_flushes"),
        "core.inclusivity": sum(r.inclusivity for r in results) / len(results),
        "hardware.cpu_busy_sim_ms": usage("cpu", "busy_ns") / 1e6,
        "hardware.dram_busy_sim_ms": usage("dram", "busy_ns") / 1e6,
        "hardware.nvm_busy_sim_ms": usage("nvm", "busy_ns") / 1e6,
        "hardware.ssd_busy_sim_ms": usage("ssd", "busy_ns") / 1e6,
        "hardware.nvm_write_mb": sum(r.nvm_write_gb for r in results) * 1e3,
        "hardware.ssd_ops": usage("ssd", "operations"),
        "hardware.sim_makespan_ms": sum(r.makespan_ns for r in results) / 1e6,
        "workloads.write_fraction": writes / max(1, reads + writes),
    }


# ----------------------------------------------------------------------
# The command people type
# ----------------------------------------------------------------------
class SuiteCli(Workload):
    name = "suite_cli"
    why = ("what people type, `repro.cli fig11 recovery --metrics-out` "
           "in a subprocess: cli, reporting, MetricsHub + export, fine-grained "
           "pages, engine + recovery: no bare cell touches these; golden-checked")
    in_children = True

    def __init__(self, seed: int, smoke: bool) -> None:
        # The figures fix their own seeds: the inputs do not vary with
        # --seed, which is what lets the output be compared byte for
        # byte against benchmarks/results/.
        super().__init__(seed, smoke)
        self.experiments = ("recovery",) if smoke else ("fig11", "recovery")
        self.ops = 2 * 1_500 if smoke else 4 * 23_000
        self.out = WORK / f"suite-{os.getpid()}"

    def probe_argv(self, runner: Path) -> list[str]:
        return [sys.executable, "-m", "repro.cli", "--list"]

    def argv(self, jobs: int = 1) -> list[str]:
        return [*self.experiments, "--jobs", str(jobs), "--out", str(self.out),
                "--metrics-out", str(self.out / "metrics.prom")]

    def run_command(self, jobs: int = 1) -> tuple[float, int]:
        """The CLI in a child interpreter: (wall, exit code)."""
        started = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", *self.argv(jobs)],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-2000:])
        return time.perf_counter() - started, done.returncode

    def repetition(self, tracer=None, diagnostics: bool = False) -> Rep:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        try:
            # Spans need the CLI in this interpreter, and so does the
            # untraced repetition a traced one is compared against.
            if tracer is not None or diagnostics:
                from repro import cli

                started = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(self.argv())
                wall = time.perf_counter() - started
            else:
                wall, code = self.run_command()
            info = {"exit_code": code}
            problems = [] if code == 0 else [f"exit code {code}"]
            for experiment in self.experiments:
                produced = self.out / f"{experiment}.json"
                golden = GOLDEN / f"{experiment}.json"
                if not produced.is_file() \
                        or produced.read_bytes() != golden.read_bytes():
                    problems.append(f"{experiment}.json differs from golden")
            exports = [self.out / "metrics.prom", self.out / "metrics.jsonl"]
            if all(path.is_file() for path in exports):
                info["obs.export_bytes"] = sum(
                    path.stat().st_size for path in exports)
                info["obs.series"] = sum(
                    1 for line in exports[0].read_text().splitlines()
                    if line and not line.startswith("#"))
            if problems:
                info["error"] = "; ".join(problems)
            return Rep(wall, self.ops, self.ops if problems else 0, info)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)

    def counts(self, untraced: Rep, traced: Rep) -> dict:
        counts = {key: traced.info.get(key, 0)
                  for key in ("obs.series", "obs.export_bytes")}
        if self.smoke:
            return counts
        # Executor-transport diagnostics: one sample each, never gated.
        from repro.bench import executor

        started = time.perf_counter()
        executor.warm_pool(2)
        counts["bench.executor.pool_warm_s"] = time.perf_counter() - started
        executor.shutdown_pool()
        self.out.mkdir(parents=True, exist_ok=True)
        try:
            jobs1_wall, _ = self.run_command(jobs=1)
            jobs2_wall, _ = self.run_command(jobs=2)
        finally:
            shutil.rmtree(self.out, ignore_errors=True)
        counts["bench.executor.jobs2_wall_s"] = jobs2_wall
        counts["bench.executor.jobs2_speedup"] = jobs1_wall / jobs2_wall
        return counts


# ----------------------------------------------------------------------
# Live serving over loopback sockets
# ----------------------------------------------------------------------
class ServeLive(Workload):
    name = "serve_live"
    why = ("in-process SpitfireServer on loopback and 2 closed-loop "
           "clients replaying a seeded 2-tenant schedule: wire protocol, "
           "admission and asyncio dispatch dominate - the one workload a "
           "serve/ change moves")
    warm_requests = 1_000
    timed_requests = 6_000
    pings = 1_000

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        from repro.serve.loadgen import LoadSpec, build_schedule
        from repro.workloads.tenancy import TenantSpec

        divisor = SMOKE_DIVISOR if smoke else 1
        self.warm_n = self.warm_requests // divisor
        self.ops = self.timed_requests // divisor
        tenants = (
            TenantSpec("alpha", mix="YCSB-RO", skew=0.7, db_gigabytes=2.0,
                       seed=2 * seed),
            TenantSpec("beta", mix="YCSB-BA", skew=0.3, db_gigabytes=4.0,
                       seed=2 * seed + 1),
        )
        # Built once, in set-up: generation is not part of a repetition.
        self.schedule = build_schedule(LoadSpec(
            tenants, total_ops=self.warm_n + self.ops, seed=seed))
        self.by_tenant = [
            [a for a in self.schedule.arrivals if a.tenant_id == tenant]
            for tenant in range(len(tenants))
        ]

    def warm(self) -> None:
        asyncio.run(self._run(None, limit=self.timed_requests // SMOKE_DIVISOR,
                              warm_n=0, pings=0))

    def repetition(self, tracer=None, diagnostics: bool = False) -> Rep:
        return asyncio.run(self._run(
            tracer, limit=None, warm_n=self.warm_n // len(self.by_tenant),
            pings=self.pings if diagnostics else 0))

    def distinct_pages(self) -> int:
        return len({a.page_id for a in self.schedule.arrivals})

    async def _run(self, tracer, limit: int | None, warm_n: int,
                   pings: int) -> Rep:
        from repro.serve.server import ServeConfig, SpitfireServer

        span = tracer.span if tracer is not None else _no_span
        with span("serve.server"):
            server = SpitfireServer(ServeConfig(
                num_tenants=len(self.by_tenant), dram_gb=1.0, nvm_gb=4.0,
                ssd_gb=32.0, page_stride=self.schedule.page_stride))
            await server.start()
            run = _ClientRun(span, asyncio.Barrier(len(self.by_tenant)))
            try:
                await asyncio.gather(*(
                    run.client(server.port, tenant, arrivals[:limit], warm_n)
                    for tenant, arrivals in enumerate(self.by_tenant)))
                ended = time.perf_counter()
                load_bytes = run.bytes
                rtts = await run.ping(server.port, pings) if pings else []
            finally:
                summary = await server.shutdown()
        # Every reply ok, everything sent was served, nothing shed.
        failed = run.failed + abs(summary["served"] - run.sent) \
            + summary["shed"]
        info = {"latencies_s": run.latencies, "summary": summary,
                "bytes": load_bytes, "ping_rtts_s": rtts}
        if failed:
            info["error"] = (f"{run.failed} bad replies, served "
                             f"{summary['served']} of {run.sent}, "
                             f"shed {summary['shed']}")
        return Rep(ended - (run.started or ended), run.sent,
                   min(failed, run.sent), info)

    def counts(self, untraced: Rep, traced: Rep) -> dict:
        from repro.serve.slo import exact_quantile as quantile

        ordered = sorted(untraced.info["latencies_s"])
        summary = untraced.info["summary"]
        waits = summary["slo"]["totals"]["queue_wait"]
        rtts = sorted(untraced.info["ping_rtts_s"])
        return {
            "serve.req_p50_us": quantile(ordered, 0.50) * 1e6,
            "serve.req_p95_us": quantile(ordered, 0.95) * 1e6,
            "serve.req_p99_us": quantile(ordered, 0.99) * 1e6,
            "serve.req_p999_us": quantile(ordered, 0.999) * 1e6,
            "serve.queue_wait_p50_us": waits["p50_ns"] / 1e3,
            "serve.queue_wait_p99_us": waits["p99_ns"] / 1e3,
            "serve.sim_us_per_op":
                summary["sim_ns"] / max(1, summary["served"]) / 1e3,
            "serve.ping_rtt_us": quantile(rtts, 0.50) * 1e6,
            "serve.bytes_per_req":
                untraced.info["bytes"] / max(1, untraced.attempted),
            "serve.shed": summary["shed"],
        }


class _NoSpan:
    """Stand-in for ``Tracer.span`` on untraced runs."""

    def __call__(self, _name: str) -> "_NoSpan":
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_no_span = _NoSpan()


class _ClientRun:
    """The benchmark's own closed-loop clients and what they observed.

    Each client waits for every reply before its next request.  Frames
    are built and parsed here (``encode_message`` / ``decode_message``
    under a ``serve.client`` span) rather than through
    ``protocol.write_frame`` so that a trace separates the client's
    share of the protocol cost from the server's.
    """

    def __init__(self, span, barrier: asyncio.Barrier) -> None:
        self.span = span
        self.barrier = barrier
        self.started: float | None = None
        self.latencies: list[float] = []
        self.sent = 0
        self.failed = 0
        self.bytes = 0

    def _request(self, fields: dict) -> bytes:
        from repro.serve import protocol

        with self.span("serve.client"):
            frame = protocol.encode_message(fields)
            self.bytes += len(frame)
            return frame

    def _reply_ok(self, body: bytes) -> bool:
        from repro.serve import protocol

        with self.span("serve.client"):
            self.bytes += len(body) + 4
            return protocol.decode_message(body).get("ok") is True

    async def _round_trip(self, reader, writer, fields: dict) -> bool:
        writer.write(self._request(fields))
        await writer.drain()
        prefix = await reader.readexactly(4)
        body = await reader.readexactly(int.from_bytes(prefix, "big"))
        return self._reply_ok(body)

    async def client(self, port: int, tenant: int, arrivals: list,
                     warm_n: int) -> None:
        """Replay one tenant's arrivals; the first ``warm_n`` untimed."""
        done = 0
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            if not await self._round_trip(
                    reader, writer, {"op": "hello", "seq": 0,
                                     "tenant": tenant}):
                raise ConnectionError("handshake refused")
            for index, arrival in enumerate(arrivals):
                if index == warm_n:
                    # Both clients start the timed part together.
                    await self.barrier.wait()
                    if self.started is None:
                        self.started = time.perf_counter()
                sent_at = time.perf_counter()
                ok = await self._round_trip(reader, writer, {
                    "op": arrival.kind, "seq": index + 1,
                    "page_id": arrival.page_id, "offset": arrival.offset,
                    "nbytes": arrival.nbytes,
                })
                if index >= warm_n:
                    self.latencies.append(time.perf_counter() - sent_at)
                self.sent += 1
                done += 1
                if not ok:
                    self.failed += 1
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.BrokenBarrierError):
            # A lost connection fails every request not yet answered and
            # releases the other client from the barrier.
            missing = len(arrivals) - done
            self.sent += missing
            self.failed += missing
            await self.barrier.abort()
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()

    async def ping(self, port: int, count: int) -> list[float]:
        """Round trips of the cheapest op on an idle server."""
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        rtts = []
        try:
            for seq in range(count):
                sent_at = time.perf_counter()
                await self._round_trip(reader, writer,
                                       {"op": "ping", "seq": seq})
                rtts.append(time.perf_counter() - sent_at)
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()
        return rtts


WORKLOADS = {cls.name: cls
             for cls in (YcsbRoHit, YcsbRoMiss, TpccWal, SuiteCli, ServeLive)}
