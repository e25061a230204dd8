"""Workload runner: measurement protocol, priming, WAL integration."""

import pytest

from repro.bench import harness
from repro.bench.harness import (
    INCLUSIVITY_SAMPLE_EVERY,
    RunConfig,
    WorkloadRunner,
)
from repro.core.buffer_manager import BufferManager
from repro.core.policy import SPITFIRE_EAGER, NVM_SSD_POLICY
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import DEFAULT_SPECS, SimulationScale, Tier
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.ycsb import YCSB_BA, YCSB_RO, YcsbWorkload

SCALE = SimulationScale(pages_per_gb=8)


def make_runner(policy=SPITFIRE_EAGER, **config_kwargs):
    hierarchy = StorageHierarchy(HierarchyShape(2, 8, 100), SCALE)
    bm = BufferManager(hierarchy, policy)
    defaults = dict(warmup_ops=200, measure_ops=500)
    defaults.update(config_kwargs)
    return WorkloadRunner(bm, RunConfig(**defaults))


class TestMeasurementProtocol:
    def test_ycsb_run_produces_result(self):
        runner = make_runner()
        workload = YcsbWorkload(500, mix=YCSB_BA, seed=1)
        result = runner.measure_ycsb(workload)
        assert result.operations == 500
        assert result.throughput > 0
        assert result.label == "YCSB-BA"
        assert result.makespan_ns > 0

    def test_warmup_excluded_from_measurement(self):
        runner = make_runner(warmup_ops=300, measure_ops=100)
        workload = YcsbWorkload(500, mix=YCSB_BA, seed=1)
        result = runner.measure_ycsb(workload)
        # Stats were reset after warm-up: only measured ops counted.
        assert result.stats.operations == 100

    def test_throughput_at_matches_the_hierarchy(self):
        """One run, every worker count a figure reads: ``throughput_at``
        applies the accumulator's own makespan rule, exactly.  The cells
        span a slowed SSD (a short window past 2**33 ns of total busy
        time, where a float sum of ``busy_ns`` starts to round), TPC-C
        with its WAL appends and checkpoints, and YCSB-RO over a table
        far larger than the buffers."""
        slow_ssd = DEFAULT_SPECS[Tier.SSD].scaled(
            rand_read_latency_ns=3_000_000.3, rand_read_bw=5.5e6,
            rand_write_bw=5.5e6)
        cases = {
            "slowed SSD": (HierarchyShape(2, 8, 100),
                           {**DEFAULT_SPECS, Tier.SSD: slow_ssd},
                           YcsbWorkload(20_000, mix=YCSB_BA, seed=1)),
            "TPC-C, WAL on": (HierarchyShape(2, 8, 100), DEFAULT_SPECS,
                              TpccWorkload(5.0, SCALE, seed=1)),
            "SSD-heavy YCSB": (HierarchyShape(0.5, 1, 100), DEFAULT_SPECS,
                               YcsbWorkload(40_000, mix=YCSB_RO, seed=2)),
        }
        runs = {}
        for name, (shape, specs, workload) in cases.items():
            hierarchy = StorageHierarchy(shape, SCALE, specs=specs)
            runner = WorkloadRunner(
                BufferManager(hierarchy, SPITFIRE_EAGER),
                RunConfig(warmup_ops=200, measure_ops=2000,
                          checkpoint_interval_ops=200))
            if isinstance(workload, TpccWorkload):
                result = runner.measure_tpcc(workload)
                assert runner.log.stats.records_appended > 0, name
                assert runner.checkpointer.checkpoints_taken > 0, name
            else:
                result = runner.measure_ycsb(workload)
            assert result.throughput_at(1) == result.throughput, name
            for workers in (1, 4, 8, 16):
                assert result.throughput_at(workers) == \
                    hierarchy.cost.throughput(result.operations, workers), name
            assert result.throughput_at(16) > result.throughput_at(1), name
            runs[name] = (hierarchy, result)
        assert runs["slowed SSD"][0].cost.total_ns > 2 ** 33
        heavy = runs["SSD-heavy YCSB"][1].stats
        assert heavy.ssd_fetches > heavy.reads / 2
    def test_tpcc_run(self):
        runner = make_runner()
        workload = TpccWorkload(5.0, SCALE, seed=1)
        result = runner.measure_tpcc(workload)
        assert result.operations == 500
        assert result.throughput > 0

    def test_inclusivity_sampled(self):
        runner = make_runner(measure_ops=2 * INCLUSIVITY_SAMPLE_EVERY)
        workload = YcsbWorkload(500, mix=YCSB_RO, seed=1)
        result = runner.measure_ycsb(workload)
        assert 0.0 <= result.inclusivity <= 1.0
        assert runner.bm.inclusivity.num_samples == 2


class TestProgressCadence:
    """``RunConfig.progress`` is called at every multiple of 2,000 ops
    (``PROGRESS_EVERY_OPS``) of a phase, plus once at a phase end that
    is not one — whatever the chunking, for a batched YCSB cell and a
    per-op TPC-C cell alike."""

    EXPECTED = [("warmup", 2000, 5000), ("warmup", 4000, 5000),
                ("warmup", 5000, 5000), ("measure", 2000, 4500),
                ("measure", 4000, 4500), ("measure", 4500, 4500)]

    @pytest.mark.parametrize("chunk", [7, 64, 1024])
    @pytest.mark.parametrize("kind", ["ycsb", "tpcc"])
    def test_documented_phase_done_sequence(self, kind, chunk, monkeypatch):
        monkeypatch.setattr(harness, "CHUNK_OPS", chunk)
        calls = []
        runner = make_runner(
            warmup_ops=5000, measure_ops=4500,
            progress=lambda *call: calls.append(call))
        if kind == "ycsb":
            result = runner.measure_ycsb(
                YcsbWorkload(500, mix=YCSB_BA, seed=1))
            assert result.batch_runs > 0
        else:
            runner.measure_tpcc(TpccWorkload(5.0, SCALE, seed=1))
        assert calls == self.EXPECTED


class TestWalIntegration:
    def test_updates_generate_log_traffic(self):
        runner = make_runner()
        workload = YcsbWorkload(500, mix=YCSB_BA, seed=1)
        runner.measure_ycsb(workload)
        assert runner.log.stats.records_appended > 0

    def test_checkpointer_flushes_on_write_interval(self):
        runner = make_runner(checkpoint_interval_ops=50)
        workload = YcsbWorkload(500, mix=YCSB_BA, seed=1)
        runner.measure_ycsb(workload)
        assert runner.checkpointer.checkpoints_taken >= 1

    def test_checkpointing_can_be_disabled(self):
        runner = make_runner(checkpoint_interval_ops=None)
        assert runner.checkpointer is None


class TestPriming:
    def test_priming_fills_buffers(self):
        runner = make_runner(warmup_ops=0, measure_ops=10)
        workload = YcsbWorkload(2000, mix=YCSB_RO, skew=0.5, seed=1)
        runner.measure_ycsb(workload)
        assert len(runner.bm.pools[Tier.DRAM]) == 16   # full
        assert len(runner.bm.pools[Tier.NVM]) == 64    # full

    def test_priming_skips_unreachable_dram(self):
        """With D=0 the policy never populates DRAM; priming respects that."""
        from repro.core.policy import MigrationPolicy

        runner = make_runner(
            policy=MigrationPolicy(0.0, 0.0, 1.0, 1.0),
            warmup_ops=0, measure_ops=10,
        )
        workload = YcsbWorkload(2000, mix=YCSB_RO, seed=1)
        runner.measure_ycsb(workload)
        assert len(runner.bm.pools[Tier.DRAM]) == 0
        assert len(runner.bm.pools[Tier.NVM]) == 64

    def test_priming_nvm_only_hierarchy(self):
        hierarchy = StorageHierarchy(HierarchyShape(0, 8, 100), SCALE)
        bm = BufferManager(hierarchy, NVM_SSD_POLICY)
        runner = WorkloadRunner(bm, RunConfig(warmup_ops=0, measure_ops=10))
        workload = YcsbWorkload(2000, mix=YCSB_RO, seed=1)
        runner.measure_ycsb(workload)
        assert len(bm.pools[Tier.NVM]) == 64


class TestDatabaseAllocation:
    def test_allocate_database_idempotent(self):
        runner = make_runner()
        runner.allocate_database(10)
        runner.allocate_database(10)
        assert len(runner.bm.store) == 10

    def test_tpcc_growth_allocates_lazily(self):
        runner = make_runner(warmup_ops=0, measure_ops=2000)
        workload = TpccWorkload(2.0, SCALE, seed=1)
        initial = workload.initial_pages
        runner.measure_tpcc(workload)
        assert len(runner.bm.store) >= initial
