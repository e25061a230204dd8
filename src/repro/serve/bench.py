"""``serve-bench``: the serving plane measured in virtual time.

The live server cannot be byte-deterministic — it reads the wall clock.
This module reproduces its *queueing behaviour* deterministically: the
same admission controller, the same buffer-manager ops in the same
serial order, but time is virtual.  Arrivals come from a
seeded :class:`~repro.serve.loadgen.LoadSchedule`; each op's service
time is the simulated cost-model delta it actually charges; queue wait
falls out of the single-server discipline (an op starts when both it
has arrived and the server is free — live, that wait is spent outside
the server, in the clients and the sockets).  The result is an SLO report
that is a pure function of the config — byte-identical across runs —
which is what lets CI pin serving-tail
behaviour the way it pins the golden figures.

The module also hosts the **overload experiment**: one schedule pushed
well past the plane's service capacity, served twice — admission
control on (bounded queues shed the excess, admitted-request p99 stays
bounded) and off (every arrival queues, p99 grows with the backlog).
The ratio between those two tails is the whole argument for admission
control, stated as a reproducible artifact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..core.buffer_manager import BufferManager
from ..faults.plan import FaultPlan
from ..hardware.pricing import HierarchyShape
from ..workloads.tenancy import TenantSpec
from .admission import AdmissionConfig, AdmissionController, Overloaded
from .loadgen import LoadSchedule, LoadSpec, build_schedule
from .server import build_buffer_manager, execute_op
from .slo import LatencySample, build_slo_report

__all__ = [
    "ServeBenchConfig",
    "default_tenants",
    "run_overload_experiment",
    "run_serve_bench",
    "simulate_serving",
]


def default_tenants(seed: int = 1) -> tuple[TenantSpec, ...]:
    """The stock three-tenant fleet serve-bench measures.

    A read-heavy hot tenant, a balanced mid-size tenant, and a TPC-C
    tenant — enough diversity that per-tenant digests differ while the
    whole run stays seconds-fast at the default scale.
    """
    return (
        TenantSpec(name="alpha", kind="ycsb", mix="YCSB-RO", skew=0.7,
                   db_gigabytes=2.0, weight=2.0, seed=seed),
        TenantSpec(name="beta", kind="ycsb", mix="YCSB-BA", skew=0.3,
                   db_gigabytes=4.0, weight=1.0, seed=seed + 1),
        TenantSpec(name="gamma", kind="tpcc", db_gigabytes=2.0,
                   weight=1.0, think_time_ns=200.0, seed=seed + 2),
    )


@dataclass(frozen=True)
class ServeBenchConfig:
    """One serve-bench run, fully specified (picklable)."""

    seed: int = 11
    total_ops: int = 4_000
    #: ~55% of the plane's measured service capacity at the default
    #: shape — busy but healthy; the overload experiment multiplies it.
    rate_ops_per_s: float = 40_000.0
    policy: str = "Spitfire-Eager"
    dram_gb: float = 1.0
    nvm_gb: float = 4.0
    ssd_gb: float = 32.0
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    tenants: tuple[TenantSpec, ...] = ()
    fault_plan: FaultPlan | None = None

    def resolved_tenants(self) -> tuple[TenantSpec, ...]:
        return self.tenants or default_tenants(self.seed)

    def digest(self) -> dict:
        """The self-description embedded in the SLO report."""
        return {
            "seed": self.seed,
            "total_ops": self.total_ops,
            "rate_ops_per_s": self.rate_ops_per_s,
            "policy": self.policy,
            "shape": {
                "dram_gb": self.dram_gb,
                "nvm_gb": self.nvm_gb,
                "ssd_gb": self.ssd_gb,
            },
            "admission": {
                "enabled": self.admission.enabled,
                "max_queue_depth": self.admission.max_queue_depth,
                "rate_ops_per_s": self.admission.rate_ops_per_s,
                "burst_ops": self.admission.burst_ops,
            },
            "tenants": [
                {"name": t.name, "kind": t.kind, "weight": t.weight}
                for t in self.resolved_tenants()
            ],
            "faults": (self.fault_plan is not None
                       and not self.fault_plan.is_noop),
        }


def _twin_bm(config: ServeBenchConfig,
             schedule: LoadSchedule) -> BufferManager:
    """The live server's buffer manager, over a loaded database with
    clean accounting."""
    bm = build_buffer_manager(
        config.policy,
        HierarchyShape(config.dram_gb, config.nvm_gb, config.ssd_gb),
        seed=config.seed,
        num_tenants=len(config.resolved_tenants()),
        page_stride=schedule.page_stride,
        fault_plan=config.fault_plan,
    )
    bm.allocate_pages(schedule.initial_page_ids())
    bm.hierarchy.reset_accounting()
    bm.reset_stats()
    return bm


def simulate_serving(
    schedule: LoadSchedule,
    bm: BufferManager,
    admission: AdmissionController,
) -> tuple[list[LatencySample], list[tuple[str, str, str]], float]:
    """Serve one schedule through the virtual-time single server.

    Returns ``(samples, sheds, makespan_s)``.  The model is the live
    server's: one serial op order running the same
    :func:`~repro.serve.server.execute_op`, admission decided at
    arrival time, a request's queue slot held until it finishes.
    Completions are retired before each arrival's admission check —
    FIFO service means the in-flight deque is finish-ordered for free.
    One thing the twin has that the wire does not: a schedule's think
    time, which the protocol has no field for — on a think-free
    schedule replayed in order the two agree op for op
    (``tests/test_serve_server.py`` holds them to it).
    """
    hierarchy = bm.hierarchy
    in_flight: deque[tuple[float, int]] = deque()
    samples: list[LatencySample] = []
    sheds: list[tuple[str, str, str]] = []
    server_free_ns = 0.0
    last_finish_ns = 0.0
    for arrival in schedule.arrivals:
        now_ns = arrival.at_ns
        while in_flight and in_flight[0][0] <= now_ns:
            _finish, tenant_id = in_flight.popleft()
            admission.release(tenant_id)
        try:
            admission.try_admit(arrival.tenant_id, now_ns / 1e9)
        except Overloaded as exc:
            sheds.append((arrival.tenant, arrival.kind, exc.reason.value))
            continue
        start_ns = max(now_ns, server_free_ns)
        before_ns = hierarchy.cost.total_ns
        execute_op(bm, arrival.kind == "write", arrival.page_id,
                   arrival.offset, arrival.nbytes, arrival.think_ns)
        service_ns = hierarchy.cost.total_ns - before_ns
        finish_ns = start_ns + service_ns
        server_free_ns = finish_ns
        last_finish_ns = finish_ns
        samples.append(LatencySample(
            tenant=arrival.tenant,
            kind=arrival.kind,
            latency_ns=finish_ns - now_ns,
            wait_ns=start_ns - now_ns,
            service_ns=service_ns,
        ))
        in_flight.append((finish_ns, arrival.tenant_id))
    while in_flight:
        _finish, tenant_id = in_flight.popleft()
        admission.release(tenant_id)
    return samples, sheds, last_finish_ns / 1e9


def run_serve_bench(config: ServeBenchConfig | None = None) -> dict:
    """One full serve-bench run: schedule → simulate → SLO report."""
    config = config or ServeBenchConfig()
    schedule = build_schedule(LoadSpec(
        tenants=config.resolved_tenants(),
        total_ops=config.total_ops,
        rate_ops_per_s=config.rate_ops_per_s,
        seed=config.seed,
    ))
    bm = _twin_bm(config, schedule)
    admission = AdmissionController(config.admission)
    samples, sheds, makespan_s = simulate_serving(schedule, bm, admission)
    report = build_slo_report(
        samples, sheds=sheds, makespan_s=makespan_s,
        config=config.digest(),
    )
    report["admission"] = admission.snapshot()
    return report


#: How far past its base rate the overload experiment pushes the plane.
OVERLOAD_FACTOR = 30.0


def run_overload_experiment(config: ServeBenchConfig | None = None) -> dict:
    """The bounded-tail-versus-unbounded-queueing demonstration.

    One schedule at ``OVERLOAD_FACTOR`` times the base arrival rate,
    served twice on fresh buffer managers: admission on, admission off.
    The summary quotes both admitted-request p99s — with shedding the
    tail is bounded by the queue depth, without it the tail grows with
    the backlog.
    """
    config = config or ServeBenchConfig()
    overloaded = ServeBenchConfig(
        seed=config.seed,
        total_ops=config.total_ops,
        rate_ops_per_s=config.rate_ops_per_s * OVERLOAD_FACTOR,
        policy=config.policy,
        dram_gb=config.dram_gb,
        nvm_gb=config.nvm_gb,
        ssd_gb=config.ssd_gb,
        admission=config.admission,
        tenants=config.tenants,
        fault_plan=config.fault_plan,
    )
    schedule = build_schedule(LoadSpec(
        tenants=overloaded.resolved_tenants(),
        total_ops=overloaded.total_ops,
        rate_ops_per_s=overloaded.rate_ops_per_s,
        seed=overloaded.seed,
    ))

    legs = {}
    for name, admission_config in (
        ("admission_on", overloaded.admission),
        ("admission_off", AdmissionConfig(
            max_queue_depth=overloaded.admission.max_queue_depth,
            rate_ops_per_s=overloaded.admission.rate_ops_per_s,
            burst_ops=overloaded.admission.burst_ops,
            enabled=False,
        )),
    ):
        bm = _twin_bm(overloaded, schedule)
        admission = AdmissionController(admission_config)
        samples, sheds, makespan_s = simulate_serving(
            schedule, bm, admission)
        legs[name] = build_slo_report(
            samples, sheds=sheds, makespan_s=makespan_s,
            config=overloaded.digest(),
        )
    on = legs["admission_on"]["totals"]
    off = legs["admission_off"]["totals"]
    return {
        "legs": legs,
        "summary": {
            "shed_rate_on": on["shed_rate"],
            "shed_rate_off": off["shed_rate"],
            "p99_on_ns": on["latency"]["p99_ns"],
            "p99_off_ns": off["latency"]["p99_ns"],
            "p99_ratio": (
                round(off["latency"]["p99_ns"] / on["latency"]["p99_ns"], 3)
                if on["latency"]["p99_ns"] else 0.0
            ),
        },
    }
