"""The columnar batch path's byte-identity contract.

``RunOptions(batch_size=N)`` drives the exact operation stream of the
per-op loop through :class:`~repro.core.batch_path.BatchAccessPath`,
which vectorizes contiguous top-tier read hits and falls back to the
per-op :class:`~repro.core.access_path.AccessPath` for everything else.
The contract is *byte-identity*: stats, per-resource costs, RNG
consumption, metrics exports, and epoch series all match the per-op run
exactly — batching changes wall-clock time and nothing else.

These tests pin the contract across batch sizes, YCSB mixes, TPC-C,
metrics attachment, and no-op fault wrappers, plus the unit-level
properties it is built on (fixed-point cost accumulation, RNG-order
preserving workload batches, batched device charging, batched
histogram observation).
"""

from __future__ import annotations

import copy
import functools

import pytest

from repro.bench.executor import Cell, Effort, run_cell, run_options
from repro.core.buffer_manager import BufferManager, BufferManagerConfig
from repro.core.policy import SPITFIRE_EAGER, SPITFIRE_LAZY
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
from repro.np_compat import HAVE_NUMPY, np
from repro.obs.metrics import Histogram
from repro.workloads.ycsb import MIXES, YcsbWorkload
from repro.workloads.zipf import ScrambledZipfianGenerator, UniformGenerator

SHAPE = HierarchyShape(dram_gb=2.0, nvm_gb=4.0, ssd_gb=100.0)

#: Small enough that the 3-mix × 3-size matrix stays fast; the full
#: protocol (warmup, sampling, metrics epochs) is covered by the
#: boundary-crossing test below and the golden-figure gate.
TINY = Effort(warmup_ops=300, measure_ops=600)

#: Crosses two inclusivity-sampling points (every 2000 ops) with a
#: batch larger than the sampling interval, so sample alignment and
#: mid-window chunk splitting are both exercised.
CROSSING = Effort(warmup_ops=400, measure_ops=4_500)

BATCH_SIZES = (7, 64, 1024)


def _fingerprint(result) -> dict:
    """Everything a run produces that batching must not perturb."""
    return {
        "stats": result.stats.as_dict(),
        "throughput": result.throughput,
        "throughput_by_workers": result.throughput_by_workers,
        "makespan_ns": result.makespan_ns,
        "inclusivity": result.inclusivity,
        "nvm_write_gb": result.nvm_write_gb,
        "resource_usage": result.resource_usage,
        "metrics": result.metrics,
    }


def _measured(cell: Cell, **options) -> dict:
    """Fingerprint of ``cell`` run with metrics attached under ``options``."""
    with run_options(collect_metrics=True, **options):
        return _fingerprint(run_cell(cell))


def _ycsb_cell(mix: str, **kwargs) -> Cell:
    return Cell.ycsb(f"batch-eq/{mix}", SHAPE, SPITFIRE_LAZY, mix, 10.0,
                     effort=TINY, extra_worker_counts=(), **kwargs)


@functools.lru_cache(maxsize=None)
def _ycsb_baseline(mix: str) -> str:
    """Per-op fingerprint, rendered comparable and cached across params."""
    return repr(_measured(_ycsb_cell(mix)))


class TestRunEquivalence:
    @pytest.mark.parametrize("mix", sorted(MIXES))
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_ycsb_batched_equals_per_op(self, mix, batch_size):
        batched = _measured(_ycsb_cell(mix), batch_size=batch_size)
        assert repr(batched) == _ycsb_baseline(mix)

    def test_tpcc_batched_equals_per_op(self):
        cell = Cell.tpcc("batch-eq/tpcc", SHAPE, SPITFIRE_LAZY, 10.0,
                         effort=TINY, extra_worker_counts=())
        assert _measured(cell, batch_size=1024) == _measured(cell)

    def test_sampling_boundaries_mid_batch(self):
        """Batches larger than the sampling interval split correctly."""
        cell = Cell.ycsb("batch-eq/crossing", SHAPE, SPITFIRE_LAZY,
                         "YCSB-BA", 10.0, effort=CROSSING,
                         extra_worker_counts=())
        assert _measured(cell, batch_size=1024) == _measured(cell)

    def test_equivalence_with_noop_fault_wrappers(self):
        """The contract holds with FaultyDevice wrappers installed."""
        cell = _ycsb_cell("YCSB-BA")
        plan = FaultPlan.none()
        assert _measured(cell, fault_plan=plan, batch_size=64) == \
            _measured(cell, fault_plan=plan)

    def test_eager_policy_slow_path_fallback(self):
        """A migration-heavy policy exercises the slow-path fallback."""
        cell = Cell.ycsb("batch-eq/eager", SHAPE, SPITFIRE_EAGER, "YCSB-BA",
                         10.0, effort=TINY, extra_worker_counts=())
        baseline = _measured(cell)
        assert baseline["stats"]["nvm_to_dram"] > 0
        assert _measured(cell, batch_size=64) == baseline

    def test_only_batch_runs_tells_a_batched_run_apart(self):
        """The one result field batching may change: vectorised runs."""
        cell = _ycsb_cell("YCSB-RO")
        assert run_cell(cell).batch_runs == 0
        with run_options(batch_size=64):
            assert run_cell(cell).batch_runs > 0

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError):
            with run_options(batch_size=0):
                pass


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

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    def test_array_quantization_matches_scalar(self):
        """np.rint's half-to-even matches Python round() elementwise."""
        values = [0.5 / FP_SCALE * k for k in range(1, 2000, 7)]
        scalar = [to_fp(v) for v in values]
        array = np.rint(np.asarray(values) * FP_SCALE).astype(np.int64)
        assert scalar == array.tolist()


class TestWorkloadBatches:
    @pytest.mark.parametrize("make_generator", [
        lambda: ScrambledZipfianGenerator(1000, 0.5, seed=9),
        lambda: UniformGenerator(1000, seed=9),
    ])
    def test_next_many_preserves_rng_order(self, make_generator):
        generator = make_generator()
        clone = copy.deepcopy(generator)
        assert generator.next_many(500) == [clone.next() for _ in range(500)]

    @pytest.mark.parametrize("mix", sorted(MIXES))
    def test_next_ops_matches_next_op(self, mix):
        per_op = YcsbWorkload(10_000, MIXES[mix], seed=5)
        batched = YcsbWorkload(10_000, MIXES[mix], seed=5)
        ops = [per_op.next_op() for _ in range(600)]
        batch = batched.next_ops(600)
        assert len(batch) == 600
        for index, op in enumerate(ops):
            assert int(batch.keys[index]) == op.key
            assert bool(batch.is_writes[index]) == op.is_write
            assert int(batch.page_ids[index]) == per_op.page_of(op.key)
            assert int(batch.offsets[index]) == per_op.offset_of(
                op.key, op.column
            )
            assert int(batch.sizes[index]) == per_op.access_bytes(op)
        # Both streams must resume in lockstep after the batch.
        assert batched.next_op() == per_op.next_op()


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
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

    def test_read_batch_array_sizes_match_per_op(self):
        scalar = StorageHierarchy(SHAPE).device(Tier.NVM)
        batched = StorageHierarchy(SHAPE).device(Tier.NVM)
        sizes = [64, 256, 1024, 100, 0, 4096, 64]
        for nbytes in sizes:
            scalar.read(nbytes)
        batched.read_batch(np.asarray(sizes, dtype=np.int64))
        assert scalar.cost.total_fp == batched.cost.total_fp
        assert scalar.cost.snapshot() == batched.cost.snapshot()
        assert scalar.counters.read_bytes == batched.counters.read_bytes

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
        assert len(transfer_fp) == 8
        assert all(transfer_fp == transfer_fp[0])
        reference = StorageHierarchy(SHAPE)
        reference.device(Tier.NVM).read(256)
        assert int(transfer_fp[0]) + latency_fp == reference.cost.total_fp


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
class TestHistogramBatch:
    def test_observe_batch_matches_per_op(self):
        one_by_one = Histogram("h")
        batched = Histogram("h")
        # Multiples of 2**-20 (the latency quantum): the running sum is
        # then exact under any addition order, like the hub's latencies.
        values = np.rint(np.abs(np.sin(np.arange(500))) * 1e5 * FP_SCALE)
        values /= FP_SCALE
        for value in values:
            one_by_one.observe(float(value))
        batched.observe_batch(values)
        assert one_by_one.bucket_counts() == batched.bucket_counts()
        assert one_by_one.count == batched.count
        assert one_by_one.sum == batched.sum


class TestHarnessBatching:
    def test_buffer_manager_read_batch_facade(self):
        bm = BufferManager(StorageHierarchy(SHAPE), SPITFIRE_LAZY,
                           BufferManagerConfig(seed=3))
        reference = BufferManager(StorageHierarchy(SHAPE), SPITFIRE_LAZY,
                                  BufferManagerConfig(seed=3))
        for manager in (bm, reference):
            manager.allocate_pages(range(8))
            for page_id in range(8):
                manager.prime_page(Tier.DRAM, page_id)
        ids = [0, 1, 2, 1, 0, 5, 7, 5]
        bm.read_batch(ids, [0] * len(ids))
        for page_id in ids:
            reference.read(page_id)
        assert bm.stats.as_dict() == reference.stats.as_dict()
        assert bm.hierarchy.cost.total_fp == reference.hierarchy.cost.total_fp
        assert (bm.hierarchy.cost.snapshot()
                == reference.hierarchy.cost.snapshot())
