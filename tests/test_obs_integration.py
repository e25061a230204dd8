"""Observability end to end: harness, executor, CLI, and bus hygiene."""

import json
from types import SimpleNamespace

import pytest

from conftest import LifecycleRecorder, make_bm

from repro.bench.executor import (
    Cell,
    Effort,
    current_options,
    run_cells,
    run_options,
)
from repro.bench.harness import RunConfig, RunOptions, WorkloadRunner
from repro.bench.reporting import ExperimentResult
from repro.core.buffer_manager import BufferManager
from repro.core.events import EventType
from repro.core.policy import SPITFIRE_EAGER, SPITFIRE_LAZY
from repro.core.stats import BufferStats
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale
from repro.obs.export import (
    merge_snapshots,
    prometheus_text,
    snapshot_jsonl_lines,
)
from repro.workloads.ycsb import YcsbWorkload

SCALE = SimulationScale(pages_per_gb=8)
SHAPE = HierarchyShape(dram_gb=2.0, nvm_gb=8.0, ssd_gb=100.0)
TINY = Effort(warmup_ops=300, measure_ops=600)


def make_runner(**options) -> WorkloadRunner:
    hierarchy = StorageHierarchy(SHAPE, SCALE)
    bm = BufferManager(hierarchy, SPITFIRE_EAGER)
    config = RunConfig(warmup_ops=200, measure_ops=400,
                       options=RunOptions(**options))
    return WorkloadRunner(bm, config)


def traced_runner(**options) -> WorkloadRunner:
    """A runner whose manager carries a lifecycle recorder attached by
    hand, as a script does: it stays on the bus across measurements, and
    the window's own observers come and go around it."""
    runner = make_runner(**options)
    runner.bm.events.subscribe(LifecycleRecorder())
    return runner


def small_workload() -> YcsbWorkload:
    return YcsbWorkload(800, skew=0.5, seed=4)


def latency_count(metrics: dict) -> int:
    """Total op_latency_ns observations in a hub snapshot."""
    return sum(
        sum(entry["state"]["counts"])
        for entry in metrics["registry"].values()
        if entry["name"] == "op_latency_ns"
    )


def tiny_cells() -> list[Cell]:
    return [
        Cell.ycsb(f"tiny-{index}", SHAPE, SPITFIRE_LAZY, "YCSB-BA",
                  db_gb=25.0, effort=TINY, scale=SCALE, workload_seed=3 + index)
        for index in range(2)
    ]


class TestHarnessMetrics:
    def test_run_result_carries_reconciled_metrics(self):
        runner = make_runner(collect_metrics=True)
        result = runner.measure_ycsb(small_workload())
        assert result.metrics is not None
        # The headline acceptance check: histogram observations match
        # the stats counters for the same window with zero tolerance.
        assert latency_count(result.metrics) == (
            result.stats.reads + result.stats.writes
        )
        assert result.metrics["epochs"]  # gauge epochs were sampled

    def test_metrics_off_by_default(self):
        runner = make_runner()
        result = runner.measure_ycsb(small_workload())
        assert result.metrics is None

    def test_page_traces_collected(self):
        """A page-lifecycle recorder attached by hand hears its types
        through a measured window, beside the window's own hub."""
        runner = make_runner(collect_metrics=True)
        recorder = runner.bm.events.subscribe(LifecycleRecorder())
        result = runner.measure_ycsb(small_workload())
        runner.bm.events.unsubscribe(recorder)
        assert result.batch_runs > 0  # it keeps the batch path on
        kinds = {event.type for event in recorder.events}
        assert {EventType.EVICT, EventType.MIGRATE_UP} <= kinds \
            <= LifecycleRecorder.event_interest

    def test_resource_usage_always_present(self):
        runner = make_runner()
        result = runner.measure_ycsb(small_workload())
        assert "cpu" in result.resource_usage
        for usage in result.resource_usage.values():
            assert {"busy_ns", "operations", "bytes_moved"} <= set(usage)

    def test_observers_detached_after_run(self):
        runner = traced_runner(collect_metrics=True)
        bus = runner.bm.events
        baseline = bus.num_subscribers
        runner.measure_ycsb(small_workload())
        assert bus.num_subscribers == baseline

    def test_observers_detached_when_workload_raises(self):
        """Regression: _measure must not leak subscriptions on error."""
        runner = traced_runner(collect_metrics=True)
        runner.config.warmup_ops = 5
        bus = runner.bm.events
        baseline = bus.num_subscribers
        calls = {"n": 0}

        def run(count):
            calls["n"] += count
            if calls["n"] > runner.config.warmup_ops:
                raise RuntimeError("boom mid-measurement")

        with pytest.raises(RuntimeError, match="boom"):
            runner._measure(run, label="boom")
        assert bus.num_subscribers == baseline

    def test_observers_detached_when_a_detach_raises(self):
        """Regression: the hub's finalize merges its fault source before
        it unsubscribes; a raising merge used to leave the hub on the
        bus and strand every observer detached after it (for the
        decision recorder, its probe on the engine too)."""
        runner = traced_runner(collect_metrics=True, trace_decisions=1.0)
        bm = runner.bm

        class BrokenRegistry:
            def snapshot(self):
                raise RuntimeError("fault registry gone")

        bm.hierarchy.fault_handle = SimpleNamespace(registry=BrokenRegistry())
        baseline = bm.events.num_subscribers
        probe = bm.engine.probe
        with pytest.raises(RuntimeError, match="fault registry gone"):
            runner.measure_ycsb(small_workload())
        assert bm.events.num_subscribers == baseline
        assert bm.engine.probe is probe

    def test_repeated_measurements_do_not_stack_subscribers(self):
        runner = traced_runner(collect_metrics=True)
        bus = runner.bm.events
        baseline = bus.num_subscribers
        workload = small_workload()
        runner.measure_ycsb(workload)
        runner.measure_ycsb(workload)
        assert bus.num_subscribers == baseline


class TestExecutorDeterminism:
    def run_with_jobs(self, jobs: int):
        cells = tiny_cells()
        with run_options(collect_metrics=True):
            results = run_cells(cells, jobs=jobs)
        return [(cell.label, result) for cell, result in zip(cells, results)]

    @staticmethod
    def export_bytes(sink) -> tuple[str, list[str]]:
        merged = merge_snapshots(result.metrics for _, result in sink)
        lines: list[str] = []
        for label, result in sink:
            lines.extend(snapshot_jsonl_lines(result.metrics, label))
        return prometheus_text(merged), lines

    def test_sink_collects_in_submission_order(self):
        sink = self.run_with_jobs(jobs=1)
        assert [label for label, _ in sink] == ["tiny-0", "tiny-1"]
        assert all(result.metrics is not None for _, result in sink)

    def test_jobs_do_not_change_exported_bytes(self):
        serial = self.export_bytes(self.run_with_jobs(jobs=1))
        parallel = self.export_bytes(self.run_with_jobs(jobs=2))
        assert serial == parallel

    def test_collection_scope_restores_environment(self):
        assert not current_options().collect_metrics
        with run_options(collect_metrics=True):
            assert current_options().collect_metrics
        assert not current_options().collect_metrics


class TestCliMetricsOut:
    def test_metrics_out_writes_reconciled_exports(self, tmp_path, capsys,
                                                   monkeypatch):
        from repro import cli

        tiny_experiment = SimpleNamespace(
            cells=lambda quick: {"only": tiny_cells()[0]},
            reduce=lambda quick, runs: ExperimentResult(
                "tinyobs", "Tiny observability check"))
        monkeypatch.setitem(cli.REGISTRY, "tinyobs", tiny_experiment)
        prom_path = tmp_path / "metrics.prom"
        assert cli.main(["tinyobs", "--metrics-out", str(prom_path)]) == 0

        text = prom_path.read_text()
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("op_latency_ns_count")
        ]
        assert sum(counts) == TINY.measure_ops  # ±0 reconciliation

        jsonl_path = prom_path.with_suffix(".jsonl")
        records = [json.loads(line)
                   for line in jsonl_path.read_text().splitlines()]
        assert all(record["cell"] == "tiny-0" for record in records)
        assert {record["record"] for record in records} == {"series", "epoch"}

        out = capsys.readouterr().out
        assert f"op_latency_ns count={TINY.measure_ops}" in out
        assert f"stats reads+writes={TINY.measure_ops}" in out


class TestCoreSupport:
    """The small core/hardware additions the observability layer leans on."""

    def test_buffer_stats_merge(self):
        a = BufferStats(reads=3, writes=1, dram_hits=2)
        b = BufferStats(reads=4, writes=2, nvm_hits=5)
        merged = a.merge(b)
        assert merged is a
        assert a.reads == 7
        assert a.writes == 3
        assert a.dram_hits == 2
        assert a.nvm_hits == 5

    def test_cost_accumulator_total_tracks_charges(self):
        bm = make_bm(policy=SPITFIRE_EAGER)
        cost = bm.hierarchy.cost
        before = cost.total_ns
        page = bm.allocate_page()
        bm.read(page)
        assert cost.total_ns > before
