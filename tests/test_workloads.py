"""Workload generators: Zipfian, YCSB, TPC-C, traces."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware.specs import DEFAULT_SCALE, PAGE_SIZE, SimulationScale
from repro.workloads import tpcc, ycsb
from repro.workloads.tenancy import MultiTenantWorkload, TenantSpec
from repro.workloads.tpcc import GB_PER_WAREHOUSE, PageAccess, TpccWorkload
from repro.workloads.trace import Trace
from repro.workloads.ycsb import (
    OpKind,
    TUPLE_SIZE,
    TUPLES_PER_PAGE,
    YCSB_BA,
    YCSB_RO,
    YCSB_WH,
    YcsbMix,
    YcsbWorkload,
)
from repro.workloads.zipf import (
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    nurand,
    scramble,
    zeta,
)

SCALE = SimulationScale(pages_per_gb=16)


class TestZipf:
    def test_zeta(self):
        assert zeta(1, 0.5) == 1.0
        assert zeta(3, 0.0) == 3.0

    def test_draws_in_range(self):
        gen = ZipfianGenerator(100, 0.5, seed=1)
        draws = [gen.next() for _ in range(5000)]
        assert all(0 <= d < 100 for d in draws)

    def test_rank_zero_is_most_popular(self):
        gen = ZipfianGenerator(100, 0.9, seed=2)
        counts = [0] * 100
        for _ in range(20000):
            counts[gen.next()] += 1
        assert counts[0] == max(counts)
        assert counts[0] > counts[50]

    def test_skew_increases_concentration(self):
        def top10_share(theta):
            gen = ZipfianGenerator(1000, theta, seed=3)
            draws = [gen.next() for _ in range(20000)]
            return sum(1 for d in draws if d < 10) / len(draws)

        assert top10_share(0.9) > top10_share(0.3) > top10_share(0.0)

    def test_theta_zero_is_uniform(self):
        gen = ZipfianGenerator(10, 0.0, seed=4)
        draws = [gen.next() for _ in range(10000)]
        counts = [draws.count(i) for i in range(10)]
        assert min(counts) > 700

    def test_deterministic_by_seed(self):
        a = [ZipfianGenerator(50, 0.5, seed=7).next() for _ in range(10)]
        b = [ZipfianGenerator(50, 0.5, seed=7).next() for _ in range(10)]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0, 0.5)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, 1.0)

    def test_scramble_is_deterministic_permutation_like(self):
        values = {scramble(rank, 997) for rank in range(997)}
        # The multiplicative hash spreads ranks widely (few collisions).
        assert len(values) > 900

    def test_scrambled_generator_spreads_hot_keys(self):
        gen = ScrambledZipfianGenerator(1000, 0.9, seed=5)
        draws = [gen.next() for _ in range(5000)]
        hot = max(set(draws), key=draws.count)
        # The hottest key need not be key 0 after scrambling.
        assert 0 <= hot < 1000

    def test_uniform_generator(self):
        gen = UniformGenerator(10, seed=1)
        assert all(0 <= gen.next() < 10 for _ in range(100))

    def test_nurand_in_bounds(self):
        rng = random.Random(1)
        for _ in range(1000):
            value = nurand(rng, 1023, 0, 2999)
            assert 0 <= value <= 2999


class TestYcsb:
    def test_mix_proportions(self):
        workload = YcsbWorkload(1000, mix=YCSB_BA, seed=1)
        ops = [workload.next_op() for _ in range(4000)]
        reads = sum(1 for op in ops if op.kind is OpKind.READ)
        assert 0.45 < reads / len(ops) < 0.55

    def test_read_only_mix(self):
        workload = YcsbWorkload(1000, mix=YCSB_RO, seed=1)
        assert all(op.kind is OpKind.READ for op in workload.operations(500))

    def test_write_heavy_mix(self):
        workload = YcsbWorkload(1000, mix=YCSB_WH, seed=1)
        writes = sum(op.is_write for op in workload.operations(4000))
        assert 0.85 < writes / 4000 < 0.95

    def test_physical_mapping(self):
        assert YcsbWorkload.page_of(0) == 0
        assert YcsbWorkload.page_of(16) == 1
        assert TUPLES_PER_PAGE == 16
        offset = YcsbWorkload.offset_of(17, column=2)
        assert offset == 1 * TUPLE_SIZE + 4 + 200

    def test_access_bytes(self):
        from repro.workloads.ycsb import Operation

        read = Operation(OpKind.READ, 1)
        update = Operation(OpKind.UPDATE, 1, column=3)
        assert YcsbWorkload.access_bytes(read) == TUPLE_SIZE
        assert YcsbWorkload.access_bytes(update) == 100

    def test_num_pages(self):
        assert YcsbWorkload(160).num_pages == 10
        assert YcsbWorkload(161).num_pages == 11

    def test_page_popularity_ranks_all_pages(self):
        workload = YcsbWorkload(320, skew=0.5, seed=1)
        ranked = workload.page_popularity(samples=2000)
        assert sorted(ranked) == list(range(workload.num_pages))

    def test_keys_within_table(self):
        workload = YcsbWorkload(100, seed=2)
        assert all(op.key < 100 for op in workload.operations(1000))

    def test_mix_validation(self):
        with pytest.raises(ValueError):
            YcsbMix("bad", 1.5)
        with pytest.raises(ValueError):
            YcsbWorkload(0)


class TestTpcc:
    @pytest.fixture
    def workload(self) -> TpccWorkload:
        return TpccWorkload(db_gigabytes=10.0, scale=SCALE, seed=1)

    def test_warehouse_scaling(self, workload):
        assert workload.warehouses == round(10.0 / GB_PER_WAREHOUSE)

    def test_initial_pages_match_db_size(self, workload):
        assert workload.initial_pages == pytest.approx(SCALE.pages(10.0), rel=0.1)

    def test_transaction_mix(self, workload):
        for _ in range(2000):
            workload.next_transaction()
        mod_fraction = (
            workload.modifying_transactions / workload.transactions_generated
        )
        # NewOrder + Payment + Delivery = 92% of transactions (the paper
        # rounds to "88% involve modifications").
        assert 0.85 < mod_fraction < 0.97

    def test_accesses_have_valid_pages(self, workload):
        for access in workload.accesses(200):
            assert 0 <= access.page_id < workload.num_pages
            assert access.nbytes > 0
            assert 0 <= access.offset < PAGE_SIZE

    def test_database_grows_with_inserts(self, workload):
        before = workload.num_pages
        for _ in range(3000):
            workload.next_transaction()
        assert workload.num_pages > before

    def test_writes_present(self, workload):
        accesses = list(workload.accesses(200))
        writes = sum(a.is_write for a in accesses)
        assert 0.2 < writes / len(accesses) < 0.7

    def test_deterministic_by_seed(self):
        a = TpccWorkload(5.0, SCALE, seed=9)
        b = TpccWorkload(5.0, SCALE, seed=9)
        ops_a = [vars_of(x) for x in a.accesses(50)]
        ops_b = [vars_of(x) for x in b.accesses(50)]
        assert ops_a == ops_b

    def test_page_popularity(self, workload):
        ranked = workload.page_popularity(samples=200)
        assert len(ranked) >= workload.initial_pages
        assert len(set(ranked)) == len(ranked)

    def test_validation(self):
        with pytest.raises(ValueError):
            TpccWorkload(0, SCALE)


def vars_of(access: PageAccess) -> tuple:
    return (access.page_id, access.offset, access.nbytes, access.is_write)


class TestSetUpMemo:
    """``page_popularity`` and ``zeta`` are pure functions of a
    workload's shape, computed once per shape per process."""

    @pytest.fixture(autouse=True)
    def cold_caches(self):
        for cached in (ycsb._ranked_pages, tpcc._ranked_pages, zeta):
            cached.cache_clear()

    @pytest.mark.parametrize("skew", [0.0, 0.5])
    def test_ycsb_equals_the_unmemoised_ranking(self, skew):
        workload = YcsbWorkload(640, skew=skew, seed=3)
        reference = list(ycsb._ranked_pages.__wrapped__(
            640, skew, 2000, workload.num_pages))
        assert workload.page_popularity(samples=2000) == reference  # miss
        assert workload.page_popularity(samples=2000) == reference  # hit
        # Another stream over the same table shares the entry.
        assert YcsbWorkload(640, mix=YCSB_RO, skew=skew, seed=9) \
            .page_popularity(samples=2000) == reference
        info = ycsb._ranked_pages.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_tpcc_equals_the_unmemoised_ranking(self):
        workload = TpccWorkload(5.0, SCALE, seed=4)
        reference = list(tpcc._ranked_pages.__wrapped__(
            5.0, SCALE, 150, workload.num_pages))
        assert workload.page_popularity(samples=150) == reference
        assert workload.page_popularity(samples=150) == reference
        assert TpccWorkload(5.0, SCALE, seed=8) \
            .page_popularity(samples=150) == reference
        info = tpcc._ranked_pages.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_tenant_mix_cold_equals_warm(self):
        def mix():
            return MultiTenantWorkload(
                (TenantSpec(name="a", mix="YCSB-BA", skew=0.9,
                            db_gigabytes=1.0, seed=7),
                 TenantSpec(name="b", kind="tpcc", db_gigabytes=2.0,
                            weight=2.0, seed=11)),
                DEFAULT_SCALE, seed=1)

        cold = mix().page_popularity()
        assert ycsb._ranked_pages.cache_info().misses == 1
        assert tpcc._ranked_pages.cache_info().misses == 1
        warm = mix().page_popularity()
        assert ycsb._ranked_pages.cache_info().hits == 1
        assert tpcc._ranked_pages.cache_info().hits == 1
        assert warm == cold

    def test_mutating_a_result_does_not_poison_the_next(self):
        for workload in (YcsbWorkload(320, skew=0.5),
                         TpccWorkload(5.0, SCALE)):
            first = workload.page_popularity(samples=100)
            kept = list(first)
            first.reverse()
            del first[10:]
            second = workload.page_popularity(samples=100)
            assert second == kept and second is not first

    def test_everything_the_ranking_depends_on_is_in_the_key(self):
        base = YcsbWorkload(320, skew=0.5).page_popularity(samples=500)
        assert YcsbWorkload(320, skew=0.5).page_popularity(samples=600) \
            != base
        assert YcsbWorkload(320, skew=0.6).page_popularity(samples=500) \
            != base
        assert len(YcsbWorkload(480, skew=0.5).page_popularity(samples=500)) \
            == 30
        assert ycsb._ranked_pages.cache_info().misses == 4

        small = TpccWorkload(5.0, SCALE).page_popularity(samples=100)
        assert TpccWorkload(5.0, SCALE).page_popularity(samples=120) != small
        assert TpccWorkload(6.0, SCALE).page_popularity(samples=100) != small
        assert TpccWorkload(5.0, SimulationScale(pages_per_gb=32)) \
            .page_popularity(samples=100) != small
        assert tpcc._ranked_pages.cache_info().misses == 4

    def test_tpcc_ranking_follows_the_growing_database(self):
        workload = TpccWorkload(5.0, SCALE, seed=2)
        workload.page_popularity(samples=50)
        for _ in range(200):  # inserts allocate new pages
            workload.next_transaction()
        assert workload.num_pages > workload.initial_pages
        ranked = workload.page_popularity(samples=50)
        assert set(range(workload.num_pages)) <= set(ranked)
        assert ranked == list(tpcc._ranked_pages.__wrapped__(
            5.0, SCALE, 50, workload.num_pages))
        assert tpcc._ranked_pages.cache_info().misses == 2

    def test_caches_are_bounded(self):
        for cached in (ycsb._ranked_pages, tpcc._ranked_pages, zeta):
            assert cached.cache_info().maxsize is not None
        maxsize = ycsb._ranked_pages.cache_info().maxsize
        for tuples in range(16, 16 * (maxsize + 5), 16):
            YcsbWorkload(tuples, skew=0.0).page_popularity(samples=10)
        assert ycsb._ranked_pages.cache_info().currsize == maxsize

    def test_zeta_memo(self):
        assert zeta(5000, 0.3) == zeta.__wrapped__(5000, 0.3)
        ZipfianGenerator(5000, 0.3, seed=1)
        ZipfianGenerator(5000, 0.3, seed=2)
        info = zeta.cache_info()
        assert info.misses == 2  # zeta(5000, .3) and zeta(2, .3), once each
        for _ in range(2):
            with pytest.raises(ValueError):
                zeta(0, 0.3)


class TestTrace:
    def test_record_and_replay(self):
        workload = TpccWorkload(5.0, SCALE, seed=1)
        trace = Trace.record(workload.accesses(50), limit=300)
        assert len(trace) <= 300
        assert trace.num_pages > 0
        assert 0.0 <= trace.write_fraction <= 1.0

    def test_save_load_roundtrip(self, tmp_path):
        accesses = [
            PageAccess(1, 0, 64, False),
            PageAccess(2, 128, 256, True),
        ]
        trace = Trace(accesses)
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = Trace.load(path)
        assert [vars_of(a) for a in loaded] == [vars_of(a) for a in accesses]

    def test_empty_trace(self):
        trace = Trace([])
        assert trace.num_pages == 0
        assert trace.write_fraction == 0.0


class TestZipfProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5000), st.floats(0.0, 0.99), st.integers(0, 2**30))
    def test_draws_always_in_range(self, n, theta, seed):
        gen = ZipfianGenerator(n, theta, seed)
        for _ in range(50):
            assert 0 <= gen.next() < n

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5000), st.integers(0, 2**30))
    def test_scrambled_draws_in_range(self, n, seed):
        gen = ScrambledZipfianGenerator(n, 0.5, seed)
        for _ in range(50):
            assert 0 <= gen.next() < n
