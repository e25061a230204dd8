"""Serving determinism: schedules, SLO reports, and the overload demo."""

import pytest

from repro.faults.plan import FaultPlan
from repro.serve.admission import AdmissionConfig
from repro.serve.bench import (
    ServeBenchConfig,
    default_tenants,
    run_overload_experiment,
    run_serve_bench,
)
from repro.serve.loadgen import LoadSpec, build_schedule
from repro.serve.slo import slo_report_json

QUICK = ServeBenchConfig(seed=7, total_ops=900)


class TestSchedule:
    def test_arrivals_sorted_and_tenant_ranges_disjoint(self):
        schedule = build_schedule(LoadSpec(
            tenants=default_tenants(5), total_ops=300, seed=5))
        times = [a.at_ns for a in schedule.arrivals]
        assert times == sorted(times)
        for arrival in schedule.arrivals:
            assert arrival.page_id // schedule.page_stride \
                == arrival.tenant_id

    def test_weights_shape_the_mix(self):
        schedule = build_schedule(LoadSpec(
            tenants=default_tenants(5), total_ops=1000, seed=5))
        counts = {}
        for arrival in schedule.arrivals:
            counts[arrival.tenant] = counts.get(arrival.tenant, 0) + 1
        # alpha has weight 2 of 4: about half the arrivals.
        assert counts["alpha"] == 500

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            LoadSpec(tenants=())
        with pytest.raises(ValueError):
            LoadSpec(tenants=default_tenants(1), total_ops=0)
        with pytest.raises(ValueError):
            LoadSpec(tenants=default_tenants(1), rate_ops_per_s=0.0)


class TestDeterminism:
    def test_report_byte_identical_across_runs(self):
        assert slo_report_json(run_serve_bench(QUICK)) \
            == slo_report_json(run_serve_bench(QUICK))

    def test_different_seeds_differ(self):
        other = ServeBenchConfig(seed=8, total_ops=900)
        assert slo_report_json(run_serve_bench(QUICK)) \
            != slo_report_json(run_serve_bench(other))

    def test_report_carries_config_digest(self):
        report = run_serve_bench(QUICK)
        assert report["config"]["seed"] == 7
        assert report["config"]["admission"]["enabled"] is True
        assert [t["name"] for t in report["config"]["tenants"]] \
            == ["alpha", "beta", "gamma"]

    def test_healthy_rate_admits_everything(self):
        report = run_serve_bench(QUICK)
        totals = report["totals"]
        assert totals["shed"] == 0
        assert totals["admitted"] == totals["arrivals"] == 900
        assert totals["latency"]["p99_ns"] > 0


class TestOverload:
    def test_shedding_bounds_the_admitted_tail(self):
        result = run_overload_experiment(
            ServeBenchConfig(seed=7, total_ops=800))
        summary = result["summary"]
        # With admission on the plane sheds under overload...
        assert summary["shed_rate_on"] > 0
        # ...and the off leg queues everything unboundedly.
        assert summary["shed_rate_off"] == 0.0
        # The admitted-request tail stays bounded only with shedding.
        assert summary["p99_off_ns"] > summary["p99_on_ns"] * 1.5
        assert summary["p99_ratio"] > 1.5

    def test_off_leg_wait_grows_with_backlog(self):
        result = run_overload_experiment(
            ServeBenchConfig(seed=7, total_ops=800))
        on = result["legs"]["admission_on"]["totals"]["queue_wait"]
        off = result["legs"]["admission_off"]["totals"]["queue_wait"]
        assert off["max_ns"] > on["max_ns"]


class TestChaosLeg:
    def test_fault_plan_run_stays_deterministic_and_serves(self):
        config = ServeBenchConfig(
            seed=7, total_ops=600,
            fault_plan=FaultPlan.seeded(
                3, horizon_ops=100_000,
                read_error_rate=0.02, write_error_rate=0.02),
        )
        first = run_serve_bench(config)
        assert first["config"]["faults"] is True
        # Transient device faults are absorbed by the retry layer; the
        # plane keeps serving (retries surface as longer service times).
        assert first["totals"]["admitted"] == first["totals"]["arrivals"]
        assert slo_report_json(first) \
            == slo_report_json(run_serve_bench(config))

    def test_faulty_run_costs_more_than_clean(self):
        clean = run_serve_bench(ServeBenchConfig(seed=7, total_ops=600))
        faulty = run_serve_bench(ServeBenchConfig(
            seed=7, total_ops=600,
            fault_plan=FaultPlan.seeded(
                3, horizon_ops=100_000,
                read_error_rate=0.05, write_error_rate=0.05),
        ))
        assert faulty["totals"]["latency"]["mean_ns"] \
            > clean["totals"]["latency"]["mean_ns"]


class TestAdmissionKnobs:
    def test_rate_limit_sheds_deterministically(self):
        config = ServeBenchConfig(
            seed=7, total_ops=900,
            admission=AdmissionConfig(
                max_queue_depth=64, rate_ops_per_s=5_000.0, burst_ops=8.0),
        )
        report = run_serve_bench(config)
        assert report["totals"]["shed"] > 0
        by_reason = {}
        for tenant in report["tenants"].values():
            for reason, count in tenant["shed_by_reason"].items():
                by_reason[reason] = by_reason.get(reason, 0) + count
        assert by_reason.get("rate_limited", 0) > 0
        assert slo_report_json(report) \
            == slo_report_json(run_serve_bench(config))
