"""The columnar batch path's byte-identity contract.

Every YCSB measurement runs through
:meth:`~repro.bench.harness.WorkloadRunner.run_ycsb_batch`: chunks of
at most ``harness.CHUNK_OPS`` generated operations, whose read runs go
through :class:`~repro.core.batch_path.BatchAccessPath`.  It vectorises
contiguous top-tier read hits and falls back to the per-op
:class:`~repro.core.access_path.AccessPath` for everything else.  The
reference here is a loop of :meth:`WorkloadRunner.run_ycsb_op` — Fig.
10's driver — and the contract is *byte-identity*: stats, per-resource
costs, the accumulator's fixed-point total, RNG consumption, metrics
exports and epoch series all match the per-op run exactly, at any chunk
size (7, 64 and 1024 here, by patching ``CHUNK_OPS``).

These tests pin the contract across YCSB mixes, every tier chain
(DRAM-NVM-SSD, DRAM-SSD, NVM-SSD with its persistent top, a memory-mode
top), TPC-C, hand-installed no-op fault wrappers and a bus subscriber
that cannot take batch summaries, plus the unit-level properties it is
built on (fixed-point cost accumulation, RNG-order preserving workload
batches, batched device charging, batched histogram observation).
"""

from __future__ import annotations

import functools

import pytest

from repro.bench import harness
from repro.bench.executor import TUPLES_PER_PAGE, Effort
from repro.bench.harness import RunConfig, RunOptions, WorkloadRunner
from repro.core.buffer_manager import BufferManager, BufferManagerConfig
from repro.core.tenancy import TenancyConfig
from repro.core.policy import (
    DRAM_SSD_POLICY,
    NVM_SSD_POLICY,
    SPITFIRE_EAGER,
    SPITFIRE_LAZY,
)
from repro.faults.injector import inject_faults
from repro.faults.plan import FaultPlan
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.simclock import (
    FP_SCALE,
    CostAccumulator,
    ResourceUsage,
    to_fp,
)
from repro.hardware.specs import Tier
from repro.obs.hub import MetricsHub
from repro.obs.metrics import Histogram
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.ycsb import MIXES, YcsbWorkload

SHAPE = HierarchyShape(dram_gb=2.0, nvm_gb=4.0, ssd_gb=100.0)

#: Small enough that the 3-mix × 3-size matrix stays fast; the full
#: protocol (warmup, sampling, metrics epochs) is covered by the
#: boundary-crossing test below and the golden-figure gate.
TINY = Effort(warmup_ops=300, measure_ops=600)

#: Crosses two inclusivity-sampling points (every 2000 ops) with a
#: chunk that would otherwise straddle them, so sample alignment and
#: mid-window chunk splitting are both exercised.
CROSSING = Effort(warmup_ops=400, measure_ops=4_500)

CHUNK_SIZES = (7, 64, 1024)

#: Every tier chain a YCSB cell can run on: the chain, its policy, and
#: whether its top tier vectorises hits (a memory-mode top, one
#: volatile device caching NVM, has no ``read_batch``).
CHAINS = {
    "dram-nvm-ssd": (SHAPE, SPITFIRE_LAZY, False, True),
    "dram-ssd": (HierarchyShape(dram_gb=2.0, nvm_gb=0.0, ssd_gb=100.0),
                 DRAM_SSD_POLICY, False, True),
    "nvm-ssd": (HierarchyShape(dram_gb=0.0, nvm_gb=4.0, ssd_gb=100.0),
                NVM_SSD_POLICY, False, True),
    "memory-mode": (HierarchyShape(dram_gb=1.0, nvm_gb=4.0, ssd_gb=100.0),
                    DRAM_SSD_POLICY, True, False),
}


class PerOpRunner(WorkloadRunner):
    """The reference: every YCSB operation through :meth:`run_ycsb_op`."""

    def run_ycsb_batch(self, workload: YcsbWorkload, count: int) -> None:
        for _ in range(count):
            self.run_ycsb_op(workload)


class EventCounter:
    """A bus subscriber without ``apply_op_batch``: it sees every event,
    so the batch path must run every op per op while it is attached."""

    def __init__(self) -> None:
        self.events = 0

    def apply_event(self, etype, page_id, tier, src, dirty) -> None:
        self.events += 1


def _fingerprint(result, hierarchy) -> dict:
    """Everything a run produces that batching must not perturb."""
    return {
        "stats": result.stats.as_dict(),
        "throughput": result.throughput,
        "throughput_at_16": result.throughput_at(16),
        "makespan_ns": result.makespan_ns,
        "inclusivity": result.inclusivity,
        "nvm_write_gb": result.nvm_write_gb,
        "resource_usage": result.resource_usage,
        "total_fp": hierarchy.cost.total_fp,
        "metrics": result.metrics,
    }


def _run(mix: str = "YCSB-BA", *, per_op: bool = False, shape=SHAPE,
         policy=SPITFIRE_LAZY, memory_mode: bool = False,
         effort: Effort = TINY, faulty: bool = False,
         observer=None) -> tuple[dict, int]:
    """Fingerprint and vectorised-run count of one measured run with
    metrics attached: a YCSB ``mix`` over 10 GB, or TPC-C for
    ``mix="TPC-C"``; ``per_op`` drives it through the reference."""
    hierarchy = StorageHierarchy(shape, memory_mode=memory_mode)
    if faulty:
        inject_faults(hierarchy, FaultPlan.none())
    bm = BufferManager(hierarchy, policy)
    if observer is not None:
        bm.events.subscribe(observer)
    runner = (PerOpRunner if per_op else WorkloadRunner)(bm, RunConfig(
        warmup_ops=effort.warmup_ops, measure_ops=effort.measure_ops,
        options=RunOptions(collect_metrics=True)))
    if mix == "TPC-C":
        result = runner.measure_tpcc(
            TpccWorkload(10.0, hierarchy.scale, seed=3))
    else:
        result = runner.measure_ycsb(YcsbWorkload(
            hierarchy.scale.pages(10.0) * TUPLES_PER_PAGE, MIXES[mix],
            seed=3))
    assert result.metrics["epochs"]
    return _fingerprint(result, hierarchy), result.batch_runs


@functools.lru_cache(maxsize=None)
def _ycsb_baseline(mix: str) -> str:
    """Per-op fingerprint, rendered comparable and cached across params."""
    return repr(_run(mix, per_op=True)[0])


@pytest.fixture
def chunk_ops(monkeypatch):
    """Set the harness's chunk cap for one test."""
    def set_chunk(size: int) -> None:
        monkeypatch.setattr(harness, "CHUNK_OPS", size)
    return set_chunk


class TestRunEquivalence:
    @pytest.mark.parametrize("mix", sorted(MIXES))
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_ycsb_batched_equals_per_op(self, mix, chunk, chunk_ops):
        chunk_ops(chunk)
        batched, runs = _run(mix)
        assert repr(batched) == _ycsb_baseline(mix)
        assert runs > 0

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    @pytest.mark.parametrize("mix", ["YCSB-RO", "YCSB-BA"])
    @pytest.mark.parametrize("chunk", CHUNK_SIZES)
    def test_every_chain_batched_equals_per_op(self, chain, mix, chunk,
                                               chunk_ops):
        shape, policy, memory_mode, vectorises = CHAINS[chain]
        chunk_ops(chunk)
        kwargs = dict(shape=shape, policy=policy, memory_mode=memory_mode)
        reference, reference_runs = _run(mix, per_op=True, **kwargs)
        batched, runs = _run(mix, **kwargs)
        assert batched == reference
        assert reference_runs == 0
        assert (runs > 0) is vectorises
        if chain == "nvm-ssd":
            # The persistent top serves its hits in place, batched too.
            assert batched["stats"]["nvm_direct_reads"] > 0

    def test_tpcc_batched_equals_per_op(self, chunk_ops):
        """TPC-C runs per op through the same chunked loop: any chunk
        size gives the same run, and nothing vectorises."""
        chunk_ops(7)
        small = _run("TPC-C")
        chunk_ops(1024)
        assert _run("TPC-C") == small
        assert small[1] == 0

    def test_sampling_boundaries_mid_batch(self, chunk_ops):
        """Chunks that would straddle a sampling point split there."""
        chunk_ops(1024)
        batched, runs = _run(effort=CROSSING)
        assert batched == _run(effort=CROSSING, per_op=True)[0]
        assert runs > 0

    def test_equivalence_with_noop_fault_wrappers(self):
        """The contract holds with FaultyDevice wrappers installed by
        hand: a wrapped top tier has no ``read_batch``, so every batched
        read takes the per-op fallback."""
        batched, runs = _run(faulty=True)
        assert runs == 0
        assert batched == _run(faulty=True, per_op=True)[0]

    def test_subscriber_without_batch_summaries_forces_fallback(self):
        """An observer without ``apply_op_batch`` sees every event of
        the per-op run, and the run equals the reference."""
        counter, reference_counter = EventCounter(), EventCounter()
        batched, runs = _run("YCSB-RO", observer=counter)
        reference, _ = _run("YCSB-RO", per_op=True,
                            observer=reference_counter)
        assert runs == 0
        assert batched == reference
        assert counter.events == reference_counter.events > 0

    def test_eager_policy_slow_path_fallback(self, chunk_ops):
        """A migration-heavy policy exercises the slow-path fallback."""
        chunk_ops(64)
        baseline, _ = _run(policy=SPITFIRE_EAGER, per_op=True)
        assert baseline["stats"]["nvm_to_dram"] > 0
        assert _run(policy=SPITFIRE_EAGER)[0] == baseline

    def test_only_batch_runs_tells_a_batched_run_apart(self):
        """The one result field the batch path changes: vectorised runs."""
        reference, reference_runs = _run("YCSB-RO", per_op=True)
        batched, runs = _run("YCSB-RO")
        assert batched == reference
        assert reference_runs == 0 and runs > 0


class TestFixedPointAccounting:
    def test_charge_order_free(self):
        """Integer accumulation makes the total independent of grouping."""
        values = [1.1, 2.7, 0.003, 199.99, 5.0e6, 0.0001] * 50
        one_by_one = CostAccumulator()
        for value in values:
            one_by_one.charge(CostAccumulator.CPU, value)
        batched = CostAccumulator()
        batched.charge_batch(CostAccumulator.CPU, values)
        assert one_by_one.total_fp == batched.total_fp
        assert one_by_one.total_ns == batched.total_ns

    def test_resource_usage_fp_roundtrip(self):
        usage = ResourceUsage()
        usage.charge_fp(to_fp(123.456), nbytes=10)
        assert usage.busy_ns == to_fp(123.456) / FP_SCALE
        assert usage.operations == 1
        assert usage.bytes_moved == 10

    def test_legacy_positional_construction(self):
        usage = ResourceUsage(10.0, 1, 100)
        assert usage.busy_ns == pytest.approx(10.0)
        assert usage.as_dict() == {
            "busy_ns": usage.busy_ns, "operations": 1, "bytes_moved": 100,
        }


class TestWorkloadBatches:
    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_next_ops_matches_next_op(self, mix):
        per_op = YcsbWorkload(10_000, MIXES[mix], seed=5)
        batched = YcsbWorkload(10_000, MIXES[mix], seed=5)
        ops = [per_op.next_op() for _ in range(600)]
        batch = batched.next_ops(600)
        assert len(batch) == 600
        assert batch.writes == [index for index, op in enumerate(ops)
                                if op.is_write]
        for index, op in enumerate(ops):
            assert batch.keys[index] == op.key
            assert batch.page_ids[index] == per_op.page_of(op.key)
            assert batch.offsets[index] == per_op.offset_of(op.key, op.column)
        # Both streams must resume in lockstep after the batch: the mix
        # stream too, which a read-only mix leaves untouched either way.
        assert batched.rng.getstate() == per_op.rng.getstate()
        assert batched.next_op() == per_op.next_op()

    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_chunks_and_single_ops_interleave(self, mix):
        """Chunks of any size, empty ones included, and single ops
        drawn in any order are one stream."""
        per_op = YcsbWorkload(10_000, MIXES[mix], seed=5)
        mixed = YcsbWorkload(10_000, MIXES[mix], seed=5)

        def row(workload, op):
            return op.is_write, op.key, workload.offset_of(op.key, op.column)

        expected = [row(per_op, per_op.next_op()) for _ in range(1_000)]
        drawn = []
        for count in (300, 0, None, 299, None, 399):
            if count is None:
                drawn.append(row(mixed, mixed.next_op()))
                continue
            batch = mixed.next_ops(count)
            drawn += [(index in batch.writes, key, offset)
                      for index, (key, offset)
                      in enumerate(zip(batch.keys, batch.offsets))]
        assert drawn == expected
        assert mixed.next_op() == per_op.next_op()


class TestDeviceBatch:
    def test_read_batch_matches_per_op_charges(self):
        scalar = StorageHierarchy(SHAPE).device(Tier.DRAM)
        batched = StorageHierarchy(SHAPE).device(Tier.DRAM)
        nbytes = 4096
        for _ in range(100):
            scalar.read(nbytes)
        batched.read_batch(nbytes, count=100)
        assert scalar.cost.total_fp == batched.cost.total_fp
        assert scalar.cost.snapshot() == batched.cost.snapshot()
        assert scalar.counters.read_ops == batched.counters.read_ops
        assert scalar.counters.read_bytes == batched.counters.read_bytes
        assert (scalar.counters.media_read_bytes
                == batched.counters.media_read_bytes)

    def test_write_batch_matches_per_op_charges(self):
        scalar = StorageHierarchy(SHAPE).device(Tier.NVM)
        batched = StorageHierarchy(SHAPE).device(Tier.NVM)
        for _ in range(50):
            scalar.write(256)
        batched.write_batch(256, count=50)
        assert scalar.cost.total_fp == batched.cost.total_fp
        assert scalar.cost.snapshot() == batched.cost.snapshot()
        assert scalar.counters.write_ops == batched.counters.write_ops
        assert scalar.counters.write_bytes == batched.counters.write_bytes

    def test_read_batch_per_op_vector(self):
        hierarchy = StorageHierarchy(SHAPE)
        transfer_fp, latency_fp = hierarchy.device(Tier.NVM).read_batch(
            256, count=8
        )
        assert hierarchy.cost.total_fp == 8 * (transfer_fp + latency_fp)
        reference = StorageHierarchy(SHAPE)
        reference.device(Tier.NVM).read(256)
        assert transfer_fp + latency_fp == reference.cost.total_fp


class TestHistogramBatch:
    def test_observe_batch_matches_per_op(self):
        one_by_one = Histogram("h")
        batched = Histogram("h")
        # Multiples of 2**-20 (the latency quantum): the running sum is
        # then exact under any addition order, like the hub's latencies.
        for value in (to_fp(x) / FP_SCALE for x in (0.0, 3.3, 17.9, 1e5)):
            for _ in range(500):
                one_by_one.observe(value)
            batched.observe_batch(value, 500)
        assert one_by_one.bucket_counts() == batched.bucket_counts()
        assert one_by_one.count == batched.count
        assert one_by_one.sum == batched.sum


def _primed_manager(pages: int, resident: int) -> BufferManager:
    """A seeded manager over ``pages`` pages, the first ``resident`` on DRAM."""
    bm = BufferManager(StorageHierarchy(SHAPE), SPITFIRE_LAZY,
                       BufferManagerConfig(seed=3))
    bm.allocate_pages(range(pages))
    for page_id in range(resident):
        bm.prime_page(Tier.DRAM, page_id)
    return bm


class TestHarnessBatching:
    def test_buffer_manager_read_batch_facade(self):
        bm, reference = _primed_manager(8, 8), _primed_manager(8, 8)
        ids = [0, 1, 2, 1, 0, 5, 7, 5]
        bm.read_batch(ids, [0] * len(ids))
        for page_id in ids:
            reference.read(page_id)
        assert bm.stats.as_dict() == reference.stats.as_dict()
        assert bm.hierarchy.cost.total_fp == reference.hierarchy.cost.total_fp
        assert (bm.hierarchy.cost.snapshot()
                == reference.hierarchy.cost.snapshot())

    @pytest.mark.parametrize("resident", [3, 1], ids=["all", "first"])
    def test_read_batch_rejects_unequal_lengths(self, resident):
        """Unequal ``page_ids``/``offsets`` raise before any charge."""
        bm = _primed_manager(3, resident)
        cost, stats = bm.hierarchy.cost.snapshot(), bm.stats.as_dict()
        with pytest.raises(ValueError):
            bm.read_batch([0, 1, 2], [0], 64)
        assert bm.hierarchy.cost.snapshot() == cost
        assert bm.stats.as_dict() == stats

    @pytest.mark.parametrize("head_start_fp", [0, (1 << 60) + 12_345],
                             ids=["exact starts", "rounded starts"])
    def test_tenant_hub_sees_a_batch_as_per_op_reads(self, head_start_fp):
        """A hub on a two-tenant manager sees a batch spanning both
        tenants (serve's ``read_batch``), epochs included, as the same
        reads per op: each op closes its bracket into its own page's
        tenant — also past 2**53 units, where op starts are rounded
        floats."""
        ids = [0, 1, 2, 1, 9, 0, 5, 7, 5, 12, 3, 3, 6, 4, 2, 0]

        def hub_snapshot(batched: bool):
            bm = BufferManager(
                StorageHierarchy(SHAPE), SPITFIRE_LAZY,
                BufferManagerConfig(seed=3, tenancy=TenancyConfig(
                    num_tenants=2, page_stride=4)))
            bm.allocate_pages(range(16))
            for page_id in range(8):
                bm.prime_page(Tier.DRAM, page_id)
            bm.hierarchy.cost.charge_fp(CostAccumulator.CPU, head_start_fp)
            hub = MetricsHub(epoch_ns=50.0).attach(bm)
            if batched:
                bm.read_batch(ids, [0] * len(ids), 1024)
            else:
                for page_id in ids:
                    bm.read(page_id, 0, 1024)
            hub.detach()
            return bm.batch_path.fast_runs, hub.snapshot()

        fast_runs, batched = hub_snapshot(True)
        assert fast_runs > 0
        assert len(batched["epochs"]) > fast_runs
        assert hub_snapshot(False) == (0, batched)
        tenants = {
            series["labels"]["tenant"]
            for series in batched["registry"].values()
            if series["name"] == "tenant_ops_total"
        }
        assert tenants == {"0", "1"}
