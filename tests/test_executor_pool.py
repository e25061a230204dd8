"""The persistent worker pool: reuse, run-option transport, fallback.

One persistent pool serves every batch, and what a run
attaches to its cells travels as one :class:`RunOptions` value inside
each submission.  These tests pin the machinery down:

* the pool survives across batches (same generation, warm reuse);
* the ``run_options`` scope: default, nesting, restore, validation;
* options set *after* the pool exists still reach workers — every
  field of them — the adversarial ordering that fork-inheritance
  transport gets wrong;
* wholesale worker death degrades to a serial rerun with identical
  results, and the next parallel batch gets a fresh pool;
* the chunk planner covers every item contiguously and submits the
  heaviest span first.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import os
from multiprocessing.managers import BaseProxy

import pytest

from repro.bench.executor import (
    CHUNKS_PER_WORKER,
    Cell,
    Effort,
    _exec_chunk,
    _plan_chunks,
    current_options,
    pool_info,
    run_cells,
    run_options,
    run_tasks,
    warm_pool,
)
from repro.bench.harness import RunOptions
from repro.bench.telemetry import ProgressAggregator, open_channel
from repro.core.policy import SPITFIRE_LAZY
from repro.hardware.pricing import HierarchyShape
from repro.obs.export import snapshot_jsonl_lines

SHAPE = HierarchyShape(dram_gb=2.0, nvm_gb=4.0, ssd_gb=100.0)
TINY = Effort(warmup_ops=300, measure_ops=600)


def tiny_cell(label: str = "tiny", seed: int = 3) -> Cell:
    return Cell.ycsb(label, SHAPE, SPITFIRE_LAZY, "YCSB-BA", 10.0,
                     effort=TINY, workload_seed=seed)


def _double(x: int) -> int:
    return x * 2


def _exit_unless_pid(arg) -> int:
    """Kill the hosting process unless it is the submitting one.

    Items carry the submitter's PID, so this dies in any pool worker
    but computes normally during the serial fallback rerun — pytest
    itself may be a child process (xdist), so ``parent_process()`` is
    not a usable guard.
    """
    pid, value = arg
    if os.getpid() != pid:
        os._exit(13)
    return value * 2


def _pool_available() -> bool:
    return warm_pool(2)


pool_required = pytest.mark.skipif(
    not _pool_available(),
    reason="platform cannot spawn worker processes",
)


class TestPoolPersistence:
    @pool_required
    def test_pool_survives_across_batches(self):
        assert warm_pool(2)
        before = pool_info()
        run_tasks(_double, range(8), jobs=2)
        run_tasks(_double, range(8), jobs=2)
        after = pool_info()
        assert before is not None and after is not None
        assert after["generation"] == before["generation"]
        assert after["workers"] >= 2

    @pool_required
    def test_pool_grows_but_never_shrinks(self):
        assert warm_pool(2)
        run_tasks(_double, range(4), jobs=3)
        grown = pool_info()
        assert grown["workers"] >= 3
        run_tasks(_double, range(4), jobs=2)
        assert pool_info()["workers"] == grown["workers"]

class TestRunOptionsScope:
    def test_default_outside_any_scope(self):
        assert current_options() == RunOptions()
        assert RunOptions() == RunOptions(
            collect_metrics=False, telemetry=None, trace_decisions=0.0)

    def test_scope_sets_and_restores_every_named_field(self):
        with run_options(collect_metrics=True,
                         trace_decisions=0.5) as options:
            assert current_options() is options
            assert options == RunOptions(collect_metrics=True,
                                         trace_decisions=0.5)
        assert current_options() == RunOptions()

    def test_nested_scope_wins_for_the_fields_it_names(self):
        with run_options(trace_decisions=0.25, collect_metrics=True) as outer:
            with run_options(trace_decisions=0.5):
                assert current_options() == RunOptions(
                    collect_metrics=True, trace_decisions=0.5)
            assert current_options() is outer
        assert current_options() == RunOptions()

    def test_restored_after_an_exception(self):
        with pytest.raises(RuntimeError):
            with run_options(collect_metrics=True):
                raise RuntimeError("escape")
        assert current_options() == RunOptions()

    @pytest.mark.parametrize("bad", [
        dict(trace_decisions=-0.1), dict(trace_decisions=1.5),
        dict(trace_decisions=float("nan")),
        dict(trace_decisions=float("inf")), dict(trace_decisions=-1.0),
    ])
    def test_invalid_values_rejected_however_built(self, bad):
        with pytest.raises(ValueError):
            RunOptions(**bad)
        with pytest.raises(ValueError):
            dataclasses.replace(RunOptions(), **bad)
        with pytest.raises(ValueError):
            with run_options(**bad):
                pass
        assert current_options() == RunOptions()

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError):
            with run_options(batch=64):
                pass

def _series_names(result) -> set[str]:
    return {entry["name"] for entry in result.metrics["registry"].values()}


#: One entry per RunOptions field: a non-default value (a factory, so
#: resources are built inside the test) and a check that the option took
#: effect on a result — ``check(result, baseline)`` with ``baseline`` the
#: same cell run under default options.
FIELD_CASES = {
    "collect_metrics": (
        lambda: True,
        lambda result, baseline: result.metrics is not None
        and baseline.metrics is None),
    "telemetry": (
        open_channel,
        lambda result, baseline: result.throughput == baseline.throughput),
    "trace_decisions": (
        lambda: 1.0,
        lambda result, baseline: result.decision_trace is not None
        and baseline.decision_trace is None),
}


@functools.lru_cache(maxsize=None)
def _default_run():
    """Four cells and their results under default options."""
    cells = tuple(tiny_cell(f"opt{i}") for i in range(4))
    return cells, run_cells(cells, jobs=1)


def _run_batch(cells, jobs: int, name: str, value):
    """Run ``cells`` with option ``name`` set to ``value``.

    Returns the results and, for the telemetry option, the number of
    events the channel delivered — ``stop()`` drains up to its own
    sentinel, so the count is exact once it returns.
    """
    aggregator = None
    if name == "telemetry":
        aggregator = ProgressAggregator(value, stream=io.StringIO()).start()
    try:
        with run_options(**{name: value}):
            results = run_cells(cells, jobs=jobs)
    finally:
        if aggregator is not None:
            aggregator.stop(final_line=False)
    events = aggregator.summary()["events_seen"] if aggregator else None
    return results, events


class TestContextAfterPool:
    def test_every_field_has_a_case(self):
        assert set(FIELD_CASES) == \
            {field.name for field in dataclasses.fields(RunOptions)}

    def test_install_round_trips_into_ambient_state(self):
        """The worker-side entry installs exactly the value it is handed
        around its chunk, whatever the worker's own ambient state."""
        shipped = RunOptions(collect_metrics=True, trace_decisions=0.25)
        with run_options(trace_decisions=0.5):
            outcomes = _exec_chunk(lambda _: current_options(), (0, 1),
                                   shipped)
            assert current_options() == RunOptions(trace_decisions=0.5)
        assert outcomes == [(True, shipped), (True, shipped)]

    @pool_required
    @pytest.mark.parametrize(
        "name", [field.name for field in dataclasses.fields(RunOptions)])
    def test_field_set_after_pool_reaches_workers(self, name):
        """The adversarial ordering, one field at a time: fork the
        workers first, THEN set the option.  Only the value each
        submission carries can bring it to the workers; what they
        compute must show the option's effect and equal the serial
        run."""
        assert warm_pool(2)
        make_value, took_effect = FIELD_CASES[name]
        cells, baseline = _default_run()
        value = make_value()
        try:
            if name == "telemetry" and not isinstance(value.queue, BaseProxy):
                pytest.skip("no multiprocessing.Manager here: worker "
                            "events cannot cross processes")
            serial, serial_events = _run_batch(cells, 1, name, value)
            pooled, pooled_events = _run_batch(cells, 2, name, value)
        finally:
            if name == "telemetry":
                value.close()
        for result, reference in zip(pooled, baseline):
            assert took_effect(result, reference)
        # RunResult compares field by field: every simulated number,
        # snapshot, breakdown and trace equals the serial run's.
        assert pooled == serial
        assert pooled_events == serial_events
        assert pooled_events is None or pooled_events >= 3 * len(cells)

    @pool_required
    def test_scopes_entered_after_pool_reach_workers(self):
        """The same ordering with planes composed — metrics + decision
        tracing, over the batch path every YCSB cell takes — down to the
        exported bytes."""
        assert warm_pool(4)
        cells = [tiny_cell(f"ctx{i}") for i in range(4)]

        def collect(jobs: int):
            with run_options(collect_metrics=True, trace_decisions=0.5):
                results = run_cells(cells, jobs=jobs)
            lines = [
                line
                for cell, result in zip(cells, results)
                for line in snapshot_jsonl_lines(result.metrics, cell.label)
            ]
            return results, lines

        serial_res, serial_lines = collect(1)
        parallel_res, parallel_lines = collect(4)
        assert [r.throughput for r in serial_res] == \
               [r.throughput for r in parallel_res]
        assert [r.stats for r in serial_res] == \
               [r.stats for r in parallel_res]
        assert serial_lines == parallel_lines
        assert all("migration_decisions_total" in _series_names(r)
                   and r.batch_runs > 0 for r in parallel_res)


class TestWorkerCrashFallback:
    @pool_required
    def test_dead_workers_degrade_to_serial_with_identical_results(self):
        assert warm_pool(2)
        items = [(os.getpid(), i) for i in range(6)]
        results = run_tasks(_exit_unless_pid, items, jobs=2)
        assert results == [i * 2 for i in range(6)]

    @pool_required
    def test_pool_recreated_after_wholesale_death(self):
        assert warm_pool(2)
        items = [(os.getpid(), i) for i in range(4)]
        run_tasks(_exit_unless_pid, items, jobs=2)  # breaks the pool
        generation = (pool_info() or {}).get("generation", 0)
        assert run_tasks(_double, range(6), jobs=2) == \
               [i * 2 for i in range(6)]
        info = pool_info()
        assert info is not None
        assert info["generation"] > generation


class TestChunkPlanner:
    def test_few_items_stay_singletons(self):
        spans = _plan_chunks([1.0] * 4, jobs=2)
        assert sorted(spans) == [(i, i + 1) for i in range(4)]

    def test_spans_cover_all_items_contiguously(self):
        # Enough items that the planner must cut spans, not singletons.
        n = 5 * 2 * CHUNKS_PER_WORKER + 3
        spans = _plan_chunks([1.0] * n, jobs=2)
        assert len(spans) <= 2 * CHUNKS_PER_WORKER + 1
        covered = sorted(spans)
        assert covered[0][0] == 0
        assert covered[-1][1] == n
        for (_, stop), (start, _) in zip(covered, covered[1:]):
            assert stop == start

    def test_heaviest_span_submitted_first(self):
        weights = [1.0] * 99 + [500.0]
        spans = _plan_chunks(weights, jobs=2)
        first = spans[0]
        assert sum(weights[first[0]:first[1]]) == \
               max(sum(weights[s:e]) for s, e in spans)

    def test_weighted_spans_balance_work(self):
        weights = [float(i % 7 + 1)
                   for i in range(5 * 4 * CHUNKS_PER_WORKER)]
        spans = _plan_chunks(weights, jobs=4)
        loads = [sum(weights[s:e]) for s, e in spans]
        target = sum(weights) / (4 * CHUNKS_PER_WORKER)
        # Greedy cutting overshoots a span by at most one item's weight.
        assert max(loads) <= target + max(weights)
