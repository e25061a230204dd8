"""Multi-tenant buffer partitioning, admission, and metrics.

Covers tenant identity end to end — a tenant is its page range: the
core-side config / control objects and their one page→tenant rule,
per-tenant frame quotas (hard and soft),
the workload-side spec + deterministic interleaver, single-tenant
byte-identity (tenant plumbing at the default tenant is free), exact
per-tenant metrics reconciliation against the global MetricsHub
totals, and the executor/experiment surface.
"""

import pytest

from repro.bench import harness
from repro.bench.executor import (
    Cell,
    CellExecutionError,
    Effort,
    run_cells,
    run_options,
)
from repro.core.buffer_manager import BufferManager, BufferManagerConfig
from repro.core.policy import HYMEM_POLICY, SPITFIRE_EAGER, SPITFIRE_LAZY
from repro.core.tenancy import QuotaMode, TenancyConfig, TenancyControl
from repro.hardware.cost_model import StorageHierarchy
from repro.obs.decisions import DecisionRecorder
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import DEFAULT_SCALE, Tier
from repro.workloads.tenancy import MultiTenantWorkload, TenantSpec
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.ycsb import COLUMN_SIZE, MIXES, TUPLE_SIZE, YcsbWorkload

SMALL_SHAPE = HierarchyShape(dram_gb=1.0, nvm_gb=4.0, ssd_gb=64.0)
SMALL_EFFORT = Effort(warmup_ops=500, measure_ops=1500)
TWO_TENANTS = (
    TenantSpec(name="oltp", mix="YCSB-BA", skew=0.9,
               db_gigabytes=0.5, seed=7),
    TenantSpec(name="scan", mix="YCSB-RO", skew=0.0,
               db_gigabytes=4.0, weight=2.0, seed=11),
)


# ----------------------------------------------------------------------
# Config, registry, control
# ----------------------------------------------------------------------
class TestTenancyConfig:
    def test_single_is_unenforced(self):
        config = TenancyConfig()
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
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TenancyConfig(**kwargs)


class TestTenancyControl:
    def test_tenant_of_is_stride_arithmetic(self):
        control = TenancyControl(
            TenancyConfig(num_tenants=3, page_stride=100))
        assert control.tenant_of(0) == 0
        assert control.tenant_of(99) == 0
        assert control.tenant_of(100) == 1
        assert control.tenant_of(250) == 2

    def test_tenant_of_clamps_past_last_range(self):
        control = TenancyControl(
            TenancyConfig(num_tenants=2, page_stride=10))
        assert control.tenant_of(10_000) == 1

    def test_manager_tenant_of(self):
        hierarchy = StorageHierarchy(SMALL_SHAPE, DEFAULT_SCALE)
        plain = BufferManager(hierarchy, SPITFIRE_LAZY)
        assert plain.tenant_of(123_456) == 0
        tenants = BufferManager(
            StorageHierarchy(SMALL_SHAPE, DEFAULT_SCALE), SPITFIRE_LAZY,
            BufferManagerConfig(tenancy=TenancyConfig(
                num_tenants=2, page_stride=100)))
        assert [tenants.tenant_of(p) for p in (0, 99, 100, 10_000)] \
            == [0, 0, 1, 1]

    def test_builds_one_queue_per_tenant(self):
        bm = BufferManager(
            StorageHierarchy(SMALL_SHAPE, DEFAULT_SCALE), HYMEM_POLICY,
            BufferManagerConfig(admission_queue_size=8, tenancy=TenancyConfig(
                num_tenants=3, page_stride=100)))
        queues = bm.admission_queues
        assert [queue.capacity for queue in queues] == [8, 8, 8]
        assert bm.engine._queue_for(0) is queues[0]
        assert bm.engine._queue_for(250) is queues[2]

    def test_no_queues_without_size(self):
        # Without a queue policy no queue is built, tenants or not.
        bm = BufferManager(
            StorageHierarchy(SMALL_SHAPE, DEFAULT_SCALE), SPITFIRE_LAZY,
            BufferManagerConfig(admission_queue_size=8, tenancy=TenancyConfig(
                num_tenants=2, page_stride=100)))
        assert bm.admission_queues == ()
        assert bm.engine._queue_for(0) is None

    def test_enforcing_requires_mode_and_plurality(self):
        base = dict(page_stride=100)
        assert not TenancyControl(TenancyConfig(
            num_tenants=2, **base)).enforcing
        assert not TenancyControl(TenancyConfig(
            num_tenants=1, quota_mode=QuotaMode.HARD, **base)).enforcing
        assert TenancyControl(TenancyConfig(
            num_tenants=2, quota_mode=QuotaMode.HARD, **base)).enforcing

    def test_quota_frames_floor_is_one(self):
        control = TenancyControl(TenancyConfig(
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
        dict(skew=-0.5),
        dict(skew=1.0),
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

    @pytest.mark.parametrize("spec", [
        TenantSpec(name="oltp", kind="tpcc", db_gigabytes=2.0, seed=11),
        TenantSpec(name="kv", mix="YCSB-RO", skew=0.5, seed=4),
    ], ids=["tpcc", "ycsb-ro"])
    def test_tenant_stream_is_its_generator_unrolled(self, spec):
        """A lone tenant's stream is its generator's accesses in order:
        a TPC-C tenant walks each transaction to its end before drawing
        the next, none dropped or reordered; a YCSB tenant emits one
        access per ``next_op``."""
        solo = MultiTenantWorkload((spec,), DEFAULT_SCALE, seed=5)
        if spec.kind == "tpcc":
            reference = TpccWorkload(spec.db_gigabytes, DEFAULT_SCALE,
                                     seed=spec.seed)
            expected = []
            while len(expected) < 3_000:
                expected += [(a.page_id, a.offset, a.nbytes, a.is_write)
                             for a in reference.next_transaction()]
        else:
            reference = YcsbWorkload(solo._streams[0].workload.num_tuples,
                                     MIXES[spec.mix], spec.skew, spec.seed)
            expected = []
            for _ in range(3_000):
                op = reference.next_op()
                expected.append((reference.page_of(op.key),
                                 reference.offset_of(op.key, op.column),
                                 COLUMN_SIZE if op.is_write else TUPLE_SIZE,
                                 op.is_write))
        assert [(a.page_id, a.offset, a.nbytes, a.is_write)
                for a in solo.accesses(3_000)] == expected[:3_000]

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
                bm.read(page)
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
            bm.read(page)
        before, _ = tier_usage(bm, Tier.DRAM)
        flood = list(range(STRIDE, STRIDE + 400))
        bm.allocate_pages(flood)
        for page in flood:
            bm.read(page)
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
            bm.read(page)
        usage, _ = tier_usage(bm, Tier.DRAM)
        assert usage[1] <= quota
        assert sum(usage.values()) < max_entries  # pool never filled


    def test_decision_spans_name_their_pages_tenant(self):
        """A span's tenant owns the span's page: an eviction names the
        victim's tenant, not the tenant whose op was in flight."""
        bm = quota_bm(QuotaMode.HARD)
        pages = list(range(0, 300)) + list(range(STRIDE, STRIDE + 300))
        bm.allocate_pages(pages)
        recorder = DecisionRecorder(fraction=1.0).attach(bm)
        try:
            for sweep in range(2):
                for page in pages:
                    bm.read(page)
        finally:
            recorder.detach()
        spans = recorder.spans
        assert {span["kind"] for span in spans} == {"decision", "eviction"}
        assert {span["tenant"] for span in spans} == {0, 1}
        for span in spans:
            assert span["tenant"] == bm.tenant_of(span["page"]), span


class TestSoftQuota:
    def test_over_share_tenant_is_preferred_victim(self):
        bm = quota_bm(QuotaMode.SOFT)
        _, max_entries = tier_usage(bm, Tier.DRAM)
        # Tenant 1 floods well past its share and fills the pool.
        flood = list(range(STRIDE, STRIDE + 2 * max_entries))
        bm.allocate_pages(flood)
        for page in flood:
            bm.read(page)
        # Tenant 0 then brings in its working set: victims must come
        # from the over-share tenant, so tenant 0 reaches its share.
        mine = list(range(0, max_entries // 2))
        bm.allocate_pages(mine)
        for sweep in range(2):
            for page in mine:
                bm.read(page)
        usage, _ = tier_usage(bm, Tier.DRAM)
        assert usage.get(0, 0) == len(mine)

    def test_unused_capacity_is_lent_out(self):
        bm = quota_bm(QuotaMode.SOFT)
        _, max_entries = tier_usage(bm, Tier.DRAM)
        # With the other tenant idle, a soft share is no ceiling.
        flood = list(range(STRIDE, STRIDE + max_entries))
        bm.allocate_pages(flood)
        for page in flood:
            bm.read(page)
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
        tagged = measure_direct(TenancyConfig())
        assert baseline == tagged

    def test_single_tenant_queue_is_the_managers(self):
        # One tenant, one queue: the one a manager without tenancy builds.
        plain, tagged = (
            BufferManager(StorageHierarchy(SMALL_SHAPE, DEFAULT_SCALE),
                          HYMEM_POLICY, BufferManagerConfig(seed=42,
                                                            tenancy=tenancy))
            for tenancy in (None, TenancyConfig()))
        (queue,) = tagged.admission_queues
        assert [q.capacity for q in plain.admission_queues] == [queue.capacity]
        assert tagged.engine._queue_for(123_456) is queue

    def test_tagged_cell_matches_untagged(self, monkeypatch):
        """A one-tenant population is the single-stream cell, tagged:
        same stream, same simulated numbers, plus a tenant-0 breakdown,
        at chunk sizes 1 and 1024 — the untagged YCSB cell runs through
        the batch path, the tenant cell per op."""
        untagged = Cell.ycsb("identity", SMALL_SHAPE, SPITFIRE_LAZY,
                             "YCSB-BA", 2.0, effort=SMALL_EFFORT, workload_seed=5)
        tagged = Cell.multi_tenant(
            "identity", SMALL_SHAPE, SPITFIRE_LAZY,
            (TenantSpec("only", mix="YCSB-BA", db_gigabytes=2.0, seed=5),),
            effort=SMALL_EFFORT)
        for chunk in (1, 1024):
            monkeypatch.setattr(harness, "CHUNK_OPS", chunk)
            baseline, result = run_cells([untagged, tagged])
            assert baseline.throughput == result.throughput
            assert baseline.stats == result.stats
            assert baseline.resource_usage == result.resource_usage
            assert set(result.tenant_breakdown) == {0}
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


def one_tenant_cell(label: str, mix: str) -> Cell:
    return Cell.multi_tenant(
        label, SMALL_SHAPE, SPITFIRE_LAZY,
        (TenantSpec("only", mix=mix, db_gigabytes=2.0, seed=3),),
        effort=SMALL_EFFORT)


class TestMetricsReconciliation:
    @pytest.mark.parametrize("mix", sorted(MIXES))
    @pytest.mark.parametrize("chunk", [1, 1024])
    def test_tenant_sums_equal_global_totals(self, mix, chunk, monkeypatch):
        monkeypatch.setattr(harness, "CHUNK_OPS", chunk)
        cells = [
            one_tenant_cell(f"recon/{mix}/c{chunk}", mix),
            Cell.multi_tenant(
                f"recon/{mix}+scan/c{chunk}", SMALL_SHAPE,
                SPITFIRE_LAZY,
                (TenantSpec("lead", mix=mix, db_gigabytes=0.5, seed=7),
                 TWO_TENANTS[1]),
                effort=SMALL_EFFORT),
        ]
        with run_options(collect_metrics=True):
            results = run_cells(cells)
        for result, tenants in zip(results, ({0}, {0, 1})):
            (global_buckets, global_sum), (tenant_buckets, tenant_sum) = \
                reconcile(result)
            assert tenant_buckets == global_buckets
            assert tenant_sum == pytest.approx(global_sum, rel=1e-9)
            assert sum(tenant_buckets) == SMALL_EFFORT.measure_ops
            assert set(result.tenant_breakdown) == tenants

    @pytest.mark.parametrize("chunk", [1, 1024])
    def test_reconciles_identically_at_any_parallelism(self, chunk,
                                                        monkeypatch):
        # The serial run chunks at ``chunk``; a pool forked before the
        # patch chunks at the default, and the results must not tell.
        monkeypatch.setattr(harness, "CHUNK_OPS", chunk)
        cells = [
            one_tenant_cell(f"recon-par/{mix}/c{chunk}", mix)
            for mix in sorted(MIXES)
        ] + [
            Cell.multi_tenant(
                f"recon-par/two/c{chunk}", SMALL_SHAPE, SPITFIRE_LAZY,
                TWO_TENANTS, effort=SMALL_EFFORT),
        ]
        with run_options(collect_metrics=True):
            serial = run_cells(cells, jobs=1)
            parallel = run_cells(cells, jobs=4)
        for left, right in zip(serial, parallel):
            assert left.throughput == right.throughput
            assert left.tenant_breakdown == right.tenant_breakdown
            (global_hist, global_sum), (tenant_hist, tenant_sum) = \
                reconcile(right)
            assert tenant_hist == global_hist
            assert tenant_sum == pytest.approx(global_sum, rel=1e-9)
        assert set(parallel[-1].tenant_breakdown) == {0, 1}

    def test_untracked_runs_have_no_tenant_series(self):
        cell = Cell.ycsb("no-tenants", SMALL_SHAPE, SPITFIRE_LAZY,
                         "YCSB-BA", 2.0, effort=SMALL_EFFORT)
        with run_options(collect_metrics=True):
            result = run_cells([cell])[0]
        assert not series_by_name(result.metrics, "tenant_ops_total")
        assert not series_by_name(result.metrics, "tenant_op_latency_ns")


class TestThinkTime:
    def test_think_time_lands_in_its_own_tenants_bracket(self):
        """A tenant's think time is charged after its op, so it lengthens
        that tenant's brackets by exactly ops × T and no other tenant's."""
        think_ns = 1024.0

        def cell(think):
            lead, scan = TWO_TENANTS
            return Cell.multi_tenant(
                f"think/{think}", SMALL_SHAPE, SPITFIRE_LAZY,
                (lead, TenantSpec(scan.name, mix=scan.mix, skew=scan.skew,
                                  db_gigabytes=scan.db_gigabytes,
                                  weight=scan.weight, seed=scan.seed,
                                  think_time_ns=think)),
                effort=SMALL_EFFORT)

        plain, thinking = (result.tenant_breakdown for result in
                           run_cells([cell(0.0), cell(think_ns)]))
        assert thinking[0] == plain[0]
        assert thinking[1]["ops"] == plain[1]["ops"]
        assert thinking[1]["latency_sum_ns"] \
            == plain[1]["latency_sum_ns"] + plain[1]["ops"] * think_ns


# ----------------------------------------------------------------------
# Executor surface
# ----------------------------------------------------------------------


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
        # A failing cell is described by its repr, tenants and quota mode
        # included.
        cell = Cell.multi_tenant("mt", SMALL_SHAPE, SPITFIRE_LAZY,
                                 TWO_TENANTS, quota_mode="hard",
                                 shares=(0.5, 0.5))
        message = str(CellExecutionError(cell, ValueError("x")))
        assert "name='oltp'" in message and "name='scan'" in message
        assert "quota_mode='hard'" in message

    def test_multi_tenant_cell_is_deterministic_across_jobs(self):
        cell = Cell.multi_tenant(
            "mt", SMALL_SHAPE, SPITFIRE_LAZY, TWO_TENANTS,
            quota_mode="hard", shares=(0.5, 0.5), effort=SMALL_EFFORT,
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
                              effort=eff),
            Cell.multi_tenant("shared", SHAPE, SPITFIRE_LAZY,
                              (OLTP, SCAN), quota_mode="none",
                              effort=eff),
            Cell.multi_tenant("hard", SHAPE, SPITFIRE_LAZY,
                              (OLTP, SCAN), quota_mode="hard",
                              shares=SHARES, effort=eff),
        ]
        alone, shared, hard = [
            r.tenant_breakdown[0]["p99_ns"] for r in run_cells(cells)
        ]
        # The hard partition keeps the OLTP tail within 20% of running
        # alone; without isolation the noisy scan tenant blows it up.
        assert hard <= alone * 1.2
        assert shared > alone * 1.2
        assert hard < shared
