"""Multi-tenant buffer partitioning, admission, and metrics.

Covers the tenant identity thread end to end: the core-side config /
registry / control objects, per-tenant frame quotas (hard and soft),
the workload-side spec + deterministic interleaver, single-tenant
byte-identity (tenant plumbing at the default tenant is free), exact
per-tenant metrics reconciliation against the global MetricsHub
totals, and the executor/experiment surface.
"""

import pytest

from repro.bench.executor import Cell, Effort, run_cells, run_options
from repro.core.buffer_manager import BufferManager, BufferManagerConfig
from repro.core.policy import POLICY_PRESETS, SPITFIRE_EAGER, SPITFIRE_LAZY
from repro.core.tenancy import (
    QuotaMode,
    TenancyConfig,
    TenancyControl,
    TenantRegistry,
)
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import DEFAULT_SCALE, Tier
from repro.workloads.tenancy import MultiTenantWorkload, TenantSpec
from repro.workloads.ycsb import MIXES

SMALL_SHAPE = HierarchyShape(dram_gb=1.0, nvm_gb=4.0, ssd_gb=64.0)
SMALL_EFFORT = Effort(warmup_ops=500, measure_ops=1500)


# ----------------------------------------------------------------------
# Config, registry, control
# ----------------------------------------------------------------------
class TestTenancyConfig:
    def test_single_is_unenforced(self):
        config = TenancyConfig.single()
        assert config.num_tenants == 1
        assert config.quota_mode is QuotaMode.NONE

    def test_equal_shares_by_default(self):
        config = TenancyConfig(num_tenants=4, page_stride=1024)
        assert config.share_of(0) == pytest.approx(0.25)

    def test_explicit_shares(self):
        config = TenancyConfig(num_tenants=2, page_stride=1024,
                               shares=(0.75, 0.25))
        assert config.share_of(0) == 0.75
        assert config.share_of(1) == 0.25

    @pytest.mark.parametrize("kwargs", [
        dict(num_tenants=0),
        dict(page_stride=0),
        dict(num_tenants=2, shares=(0.5,)),
        dict(num_tenants=2, shares=(0.8, 0.4)),
        dict(num_tenants=2, shares=(0.5, -0.1)),
        dict(num_tenants=2, policy_presets=("Spitfire-Lazy",)),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TenancyConfig(**kwargs)


class TestTenantRegistry:
    def test_stride_arithmetic(self):
        registry = TenantRegistry(num_tenants=3, page_stride=100)
        assert registry.tenant_of(0) == 0
        assert registry.tenant_of(99) == 0
        assert registry.tenant_of(100) == 1
        assert registry.tenant_of(250) == 2
        assert registry.base_page(2) == 200

    def test_clamps_past_last_range(self):
        registry = TenantRegistry(num_tenants=2, page_stride=10)
        assert registry.tenant_of(10_000) == 1


class TestTenancyControl:
    def test_builds_one_queue_per_tenant(self):
        control = TenancyControl.build(
            TenancyConfig(num_tenants=3, page_stride=100),
            admission_queue_size=8,
        )
        assert len(control.admission_queues) == 3
        assert control.queue_for(0) is control.admission_queues[0]
        assert control.queue_for(250) is control.admission_queues[2]

    def test_no_queues_without_size(self):
        control = TenancyControl.build(
            TenancyConfig(num_tenants=2, page_stride=100))
        assert control.admission_queues == ()
        assert control.queue_for(0) is None

    def test_policy_presets_resolve(self):
        control = TenancyControl.build(TenancyConfig(
            num_tenants=2, page_stride=100,
            policy_presets=("Spitfire-Lazy", None),
        ))
        assert control.policy_for(0) is POLICY_PRESETS["Spitfire-Lazy"]
        assert control.policy_for(150) is None

    def test_enforcing_requires_mode_and_plurality(self):
        base = dict(page_stride=100)
        assert not TenancyControl.build(TenancyConfig(
            num_tenants=2, **base)).enforcing
        assert not TenancyControl.build(TenancyConfig(
            num_tenants=1, quota_mode=QuotaMode.HARD, **base)).enforcing
        assert TenancyControl.build(TenancyConfig(
            num_tenants=2, quota_mode=QuotaMode.HARD, **base)).enforcing

    def test_quota_frames_floor_is_one(self):
        control = TenancyControl.build(TenancyConfig(
            num_tenants=2, page_stride=100, shares=(0.001, 0.999)))
        assert control.quota_frames(Tier.DRAM, 64, 0) == 1
        assert control.quota_frames(Tier.DRAM, 64, 1) == 63


# ----------------------------------------------------------------------
# Workload specs and the interleaver
# ----------------------------------------------------------------------
class TestTenantSpec:
    @pytest.mark.parametrize("kwargs", [
        dict(kind="redis"),
        dict(mix="YCSB-XX"),
        dict(weight=0.0),
        dict(db_gigabytes=0.0),
        dict(think_time_ns=-1.0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TenantSpec(name="t", **kwargs)

    def test_tpcc_ignores_mix(self):
        spec = TenantSpec(name="t", kind="tpcc", db_gigabytes=1.0)
        assert spec.kind == "tpcc"


def two_tenant_workload(seed=1):
    return MultiTenantWorkload(
        (
            TenantSpec(name="a", mix="YCSB-BA", skew=0.9,
                       db_gigabytes=1.0, seed=7),
            TenantSpec(name="b", mix="YCSB-RO", skew=0.0,
                       db_gigabytes=4.0, weight=2.0, seed=11),
        ),
        DEFAULT_SCALE,
        seed=seed,
    )


class TestMultiTenantWorkload:
    def test_requires_a_tenant(self):
        with pytest.raises(ValueError):
            MultiTenantWorkload((), DEFAULT_SCALE)

    def test_stream_is_deterministic(self):
        first = list(two_tenant_workload().accesses(300))
        second = list(two_tenant_workload().accesses(300))
        assert first == second

    def test_interleaver_seed_changes_order(self):
        first = [a.tenant_id for a in two_tenant_workload(seed=1).accesses(100)]
        second = [a.tenant_id for a in two_tenant_workload(seed=2).accesses(100)]
        assert first != second

    def test_stride_is_power_of_two_with_headroom(self):
        workload = two_tenant_workload()
        stride = workload.page_stride
        assert stride & (stride - 1) == 0
        largest = max(s.num_pages for s in workload._streams)
        assert stride >= 2 * largest

    def test_accesses_stay_in_owner_ranges(self):
        workload = two_tenant_workload()
        stride = workload.page_stride
        for access in workload.accesses(500):
            assert access.page_id // stride == access.tenant_id

    def test_arrival_weights_bias_the_draw(self):
        counts = {0: 0, 1: 0}
        for access in two_tenant_workload().accesses(3000):
            counts[access.tenant_id] += 1
        # Tenant b carries weight 2.0 vs 1.0 — expect roughly 2:1.
        assert 1.5 < counts[1] / counts[0] < 2.7

    def test_tenant_substream_is_independent(self):
        # The tenant-0 subsequence of the merged stream equals the same
        # spec's solo stream: the interleaver advances only the drawn
        # tenant, so one tenant's draws don't depend on the other's.
        merged = two_tenant_workload()
        sub = [a.page_id for a in merged.accesses(600) if a.tenant_id == 0]
        solo = MultiTenantWorkload(
            (merged.specs[0],), DEFAULT_SCALE, seed=5)
        solo_pages = [a.page_id for a in solo.accesses(len(sub))]
        assert sub == solo_pages

    def test_popularity_merge_is_deterministic(self):
        assert (two_tenant_workload().page_popularity()
                == two_tenant_workload().page_popularity())

    def test_popularity_covers_every_tenant(self):
        workload = two_tenant_workload()
        ranked_tenants = {
            page // workload.page_stride
            for page in workload.page_popularity()
        }
        assert ranked_tenants == {0, 1}


# ----------------------------------------------------------------------
# Quota enforcement in the space manager
# ----------------------------------------------------------------------
STRIDE = 1024


def quota_bm(quota_mode, shares=(0.5, 0.5)):
    hierarchy = StorageHierarchy(SMALL_SHAPE, DEFAULT_SCALE)
    config = BufferManagerConfig(seed=42, tenancy=TenancyConfig(
        num_tenants=2, page_stride=STRIDE, quota_mode=quota_mode,
        shares=shares,
    ))
    # Eager policy: every access promotes to DRAM, so quota pressure is
    # deterministic rather than riding the lazy 1% admission dice.
    return BufferManager(hierarchy, SPITFIRE_EAGER, config)


def tier_usage(bm, tier):
    pool = bm.chain.node(tier).pool
    return bm.tenancy.usage_by_tenant(pool.descriptors()), pool.max_entries


class TestHardQuota:
    def test_tenant_never_exceeds_its_share(self):
        bm = quota_bm(QuotaMode.HARD)
        pages = list(range(0, 200)) + list(range(STRIDE, STRIDE + 200))
        bm.allocate_pages(pages)
        for sweep in range(3):
            for page in pages:
                bm.read(page, tenant_id=page // STRIDE)
        for tier in (Tier.DRAM, Tier.NVM):
            usage, max_entries = tier_usage(bm, tier)
            for tenant_id, held in usage.items():
                quota = bm.tenancy.quota_frames(tier, max_entries, tenant_id)
                assert held <= quota, (tier, tenant_id, held, quota)

    def test_flooding_tenant_cannot_displace_the_other(self):
        bm = quota_bm(QuotaMode.HARD)
        quiet = list(range(0, 20))
        bm.allocate_pages(quiet)
        for page in quiet:
            bm.read(page, tenant_id=0)
        before, _ = tier_usage(bm, Tier.DRAM)
        flood = list(range(STRIDE, STRIDE + 400))
        bm.allocate_pages(flood)
        for page in flood:
            bm.read(page, tenant_id=1)
        after, _ = tier_usage(bm, Tier.DRAM)
        # The quiet tenant's residency is untouched by the flood.
        assert after.get(0, 0) == before.get(0, 0) == len(quiet)

    def test_enforced_even_with_free_frames(self):
        # Hard quota evicts the tenant's own page on insert even while
        # the pool still has free frames.
        bm = quota_bm(QuotaMode.HARD)
        _, max_entries = tier_usage(bm, Tier.DRAM)
        quota = bm.tenancy.quota_frames(Tier.DRAM, max_entries, 1)
        flood = list(range(STRIDE, STRIDE + quota + 20))
        bm.allocate_pages(flood)
        for page in flood:
            bm.read(page, tenant_id=1)
        usage, _ = tier_usage(bm, Tier.DRAM)
        assert usage[1] <= quota
        assert sum(usage.values()) < max_entries  # pool never filled


class TestSoftQuota:
    def test_over_share_tenant_is_preferred_victim(self):
        bm = quota_bm(QuotaMode.SOFT)
        _, max_entries = tier_usage(bm, Tier.DRAM)
        # Tenant 1 floods well past its share and fills the pool.
        flood = list(range(STRIDE, STRIDE + 2 * max_entries))
        bm.allocate_pages(flood)
        for page in flood:
            bm.read(page, tenant_id=1)
        # Tenant 0 then brings in its working set: victims must come
        # from the over-share tenant, so tenant 0 reaches its share.
        mine = list(range(0, max_entries // 2))
        bm.allocate_pages(mine)
        for sweep in range(2):
            for page in mine:
                bm.read(page, tenant_id=0)
        usage, _ = tier_usage(bm, Tier.DRAM)
        assert usage.get(0, 0) == len(mine)

    def test_unused_capacity_is_lent_out(self):
        bm = quota_bm(QuotaMode.SOFT)
        _, max_entries = tier_usage(bm, Tier.DRAM)
        # With the other tenant idle, a soft share is no ceiling.
        flood = list(range(STRIDE, STRIDE + max_entries))
        bm.allocate_pages(flood)
        for page in flood:
            bm.read(page, tenant_id=1)
        usage, _ = tier_usage(bm, Tier.DRAM)
        quota = bm.tenancy.quota_frames(Tier.DRAM, max_entries, 1)
        assert usage[1] > quota


# ----------------------------------------------------------------------
# Single-tenant byte-identity
# ----------------------------------------------------------------------
def measure_direct(tenancy):
    hierarchy = StorageHierarchy(SMALL_SHAPE, DEFAULT_SCALE)
    bm = BufferManager(hierarchy, SPITFIRE_LAZY,
                       BufferManagerConfig(seed=42, tenancy=tenancy))
    pages = list(range(128))
    bm.allocate_pages(pages)
    for sweep in range(5):
        for page in pages:
            if (page + sweep) % 3 == 0:
                bm.write(page, 0, 100)
            else:
                bm.read(page)
    return hierarchy.cost.total_ns, bm.stats.as_dict()


class TestSingleTenantIdentity:
    def test_core_costs_and_stats_identical(self):
        baseline = measure_direct(None)
        tagged = measure_direct(TenancyConfig.single())
        assert baseline == tagged

    def test_single_tenant_queue_is_the_managers(self):
        hierarchy = StorageHierarchy(SMALL_SHAPE, DEFAULT_SCALE)
        bm = BufferManager(
            hierarchy, SPITFIRE_LAZY,
            BufferManagerConfig(seed=42, tenancy=TenancyConfig.single()),
        )
        if bm.tenancy.admission_queues:
            assert bm.tenancy.admission_queues[0] is bm.admission_queue

    def test_tagged_cell_matches_untagged(self):
        cell = Cell.ycsb("identity", SMALL_SHAPE, SPITFIRE_LAZY,
                         "YCSB-BA", 2.0, effort=SMALL_EFFORT,
                         extra_worker_counts=())
        baseline = run_cells([cell])[0]
        with run_options(track_tenants=True):
            tagged = run_cells([cell])[0]
        assert baseline.throughput == tagged.throughput
        assert baseline.stats == tagged.stats
        assert set(tagged.tenant_breakdown) == {0}
        assert baseline.tenant_breakdown is None


# ----------------------------------------------------------------------
# Per-tenant metrics reconciliation (exact, at any parallelism)
# ----------------------------------------------------------------------
def series_by_name(metrics, name):
    return [s for s in metrics["registry"].values() if s["name"] == name]


def merged_histogram(series):
    """Summed per-bucket counts and total sum across histogram series."""
    buckets = [0] * len(series[0]["state"]["counts"])
    total = 0.0
    for s in series:
        for i, count in enumerate(s["state"]["counts"]):
            buckets[i] += count
        total += s["state"]["sum"]
    return buckets, total


def reconcile(result):
    """Assert tenant op counters match the global ones exactly; return
    the merged (global, tenant) latency histograms for comparison."""
    metrics = result.metrics
    global_ops = {
        s["labels"]["kind"]: s["state"]
        for s in series_by_name(metrics, "buffer_ops_total")
    }
    tenant_ops = {}
    for s in series_by_name(metrics, "tenant_ops_total"):
        kind = s["labels"]["kind"]
        tenant_ops[kind] = tenant_ops.get(kind, 0) + s["state"]
    # Tenant series materialise lazily, so zero-count kinds are absent.
    assert tenant_ops == {k: v for k, v in global_ops.items() if v}
    return (
        merged_histogram(series_by_name(metrics, "op_latency_ns")),
        merged_histogram(series_by_name(metrics, "tenant_op_latency_ns")),
    )


class TestMetricsReconciliation:
    @pytest.mark.parametrize("mix", sorted(MIXES))
    @pytest.mark.parametrize("batch_size", [1, 1024])
    def test_tenant_sums_equal_global_totals(self, mix, batch_size):
        cell = Cell.ycsb(
            f"recon/{mix}/b{batch_size}", SMALL_SHAPE, SPITFIRE_LAZY,
            mix, 2.0, effort=SMALL_EFFORT, extra_worker_counts=(),
        )
        with run_options(collect_metrics=True, track_tenants=True,
                         batch_size=batch_size):
            result = run_cells([cell])[0]
        (global_buckets, global_sum), (tenant_buckets, tenant_sum) = \
            reconcile(result)
        assert tenant_buckets == global_buckets
        assert tenant_sum == pytest.approx(global_sum, rel=1e-9)
        assert sum(tenant_buckets) == SMALL_EFFORT.measure_ops

    @pytest.mark.parametrize("batch_size", [1, 1024])
    def test_reconciles_identically_at_any_parallelism(self, batch_size):
        cells = [
            Cell.ycsb(
                f"recon-par/{mix}/b{batch_size}", SMALL_SHAPE,
                SPITFIRE_LAZY, mix, 2.0, effort=SMALL_EFFORT,
                extra_worker_counts=(),
            )
            for mix in sorted(MIXES)
        ]
        with run_options(collect_metrics=True, track_tenants=True,
                         batch_size=batch_size):
            serial = run_cells(cells, jobs=1)
            parallel = run_cells(cells, jobs=4)
        for left, right in zip(serial, parallel):
            assert left.throughput == right.throughput
            assert left.tenant_breakdown == right.tenant_breakdown
            (global_hist, global_sum), (tenant_hist, tenant_sum) = \
                reconcile(right)
            assert tenant_hist == global_hist
            assert tenant_sum == pytest.approx(global_sum, rel=1e-9)

    def test_untracked_runs_have_no_tenant_series(self):
        cell = Cell.ycsb("no-tenants", SMALL_SHAPE, SPITFIRE_LAZY,
                         "YCSB-BA", 2.0, effort=SMALL_EFFORT,
                         extra_worker_counts=())
        with run_options(collect_metrics=True):
            result = run_cells([cell])[0]
        assert not series_by_name(result.metrics, "tenant_ops_total")
        assert not series_by_name(result.metrics, "tenant_op_latency_ns")


# ----------------------------------------------------------------------
# Executor surface
# ----------------------------------------------------------------------
TWO_TENANTS = (
    TenantSpec(name="oltp", mix="YCSB-BA", skew=0.9,
               db_gigabytes=0.5, seed=7),
    TenantSpec(name="scan", mix="YCSB-RO", skew=0.0,
               db_gigabytes=4.0, weight=2.0, seed=11),
)


class TestExecutorTenancy:
    def test_rejects_unknown_quota_mode(self):
        with pytest.raises(ValueError):
            Cell.multi_tenant("bad", SMALL_SHAPE, SPITFIRE_LAZY,
                              TWO_TENANTS, quota_mode="firm")

    def test_rejects_share_count_mismatch(self):
        with pytest.raises(ValueError):
            Cell.multi_tenant("bad", SMALL_SHAPE, SPITFIRE_LAZY,
                              TWO_TENANTS, shares=(1.0,))

    def test_rejects_empty_population(self):
        with pytest.raises(ValueError):
            Cell.multi_tenant("bad", SMALL_SHAPE, SPITFIRE_LAZY, ())

    def test_describe_names_tenants(self):
        cell = Cell.multi_tenant("mt", SMALL_SHAPE, SPITFIRE_LAZY,
                                 TWO_TENANTS, quota_mode="hard",
                                 shares=(0.5, 0.5))
        assert "oltp+scan" in cell.describe()
        assert "quota=hard" in cell.describe()

    def test_multi_tenant_cell_is_deterministic_across_jobs(self):
        cell = Cell.multi_tenant(
            "mt", SMALL_SHAPE, SPITFIRE_LAZY, TWO_TENANTS,
            quota_mode="hard", shares=(0.5, 0.5), effort=SMALL_EFFORT,
            extra_worker_counts=(),
        )
        serial = run_cells([cell], jobs=1)[0]
        parallel = run_cells([cell, cell], jobs=4)
        assert serial.throughput == parallel[0].throughput
        assert serial.tenant_breakdown == parallel[0].tenant_breakdown
        assert parallel[0].tenant_breakdown == parallel[1].tenant_breakdown
        assert set(serial.tenant_breakdown) == {0, 1}
        total = sum(v["ops"] for v in serial.tenant_breakdown.values())
        assert total == SMALL_EFFORT.measure_ops


# ----------------------------------------------------------------------
# The noisy-neighbor isolation experiment
# ----------------------------------------------------------------------
class TestTenantIsolation:
    def test_registered(self):
        from repro.bench.experiments import REGISTRY

        assert "tenants" in REGISTRY

    def test_quota_bounds_the_noisy_neighbor_tail(self):
        from repro.bench.experiments.tenant_isolation import (
            OLTP,
            SCAN,
            SHAPE,
            SHARES,
        )

        eff = Effort(warmup_ops=2000, measure_ops=4000)
        cells = [
            Cell.multi_tenant("alone", SHAPE, SPITFIRE_LAZY, (OLTP,),
                              effort=eff, extra_worker_counts=()),
            Cell.multi_tenant("shared", SHAPE, SPITFIRE_LAZY,
                              (OLTP, SCAN), quota_mode="none",
                              effort=eff, extra_worker_counts=()),
            Cell.multi_tenant("hard", SHAPE, SPITFIRE_LAZY,
                              (OLTP, SCAN), quota_mode="hard",
                              shares=SHARES, effort=eff,
                              extra_worker_counts=()),
        ]
        alone, shared, hard = [
            r.tenant_breakdown[0]["p99_ns"] for r in run_cells(cells)
        ]
        # The hard partition keeps the OLTP tail within 20% of running
        # alone; without isolation the noisy scan tenant blows it up.
        assert hard <= alone * 1.2
        assert shared > alone * 1.2
        assert hard < shared
