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
import sys
import time
from dataclasses import dataclass

import pytest

from repro.bench import executor
from repro.bench.executor import (
    CHUNKS_PER_WORKER,
    Cell,
    Effort,
    _exec_chunk,
    _plan_chunks,
    current_options,
    pool_info,
    progress_sink,
    run_cells,
    run_options,
    warm_pool,
)
from repro.bench.harness import RunOptions
from repro.bench.telemetry import ProgressLine
from repro.core.policy import SPITFIRE_LAZY
from repro.hardware.pricing import HierarchyShape
from repro.obs.export import snapshot_jsonl_lines

SHAPE = HierarchyShape(dram_gb=2.0, nvm_gb=4.0, ssd_gb=100.0)
TINY = Effort(warmup_ops=300, measure_ops=600)


def tiny_cell(label: str = "tiny", seed: int = 3) -> Cell:
    return Cell.ycsb(label, SHAPE, SPITFIRE_LAZY, "YCSB-BA", 10.0,
                     effort=TINY, workload_seed=seed)


@dataclass(frozen=True)
class Task:
    """A batch item that doubles ``value``.

    With ``exit_unless_pid`` set it kills its host process, after
    ``exit_after_s``, unless that is the submitting one: it dies in any
    pool worker but computes normally during the serial fallback rerun
    (pytest itself may be a child process under xdist, so
    ``parent_process()`` is not a usable guard).
    """

    value: int
    weight: float = 1.0
    exit_unless_pid: int | None = None
    exit_after_s: float = 0.0

    def run(self) -> int:
        if self.exit_unless_pid not in (None, os.getpid()):
            time.sleep(self.exit_after_s)
            os._exit(13)
        return self.value * 2


def tasks(count: int, **fields) -> list[Task]:
    return [Task(value, **fields) for value in range(count)]


@dataclass(frozen=True)
class OptionsProbe:
    """A batch item whose result is the options it ran under."""

    weight = 1.0

    def run(self) -> RunOptions:
        return current_options()


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
        run_cells(tasks(8), jobs=2)
        run_cells(tasks(8), jobs=2)
        after = pool_info()
        assert before is not None and after is not None
        assert after["generation"] == before["generation"]
        assert after["workers"] >= 2

    @pool_required
    def test_pool_grows_but_never_shrinks(self):
        assert warm_pool(2)
        run_cells(tasks(4), jobs=3)
        grown = pool_info()
        assert grown["workers"] >= 3
        run_cells(tasks(4), jobs=2)
        assert pool_info()["workers"] == grown["workers"]

class TestRunOptionsScope:
    def test_default_outside_any_scope(self):
        assert current_options() == RunOptions()
        assert RunOptions() == RunOptions(
            collect_metrics=False, trace_decisions=0.0)

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
    """Run ``cells`` with option ``name`` set to ``value``."""
    with run_options(**{name: value}):
        return run_cells(cells, jobs=jobs)


class TestContextAfterPool:
    def test_every_field_has_a_case(self):
        assert set(FIELD_CASES) == \
            {field.name for field in dataclasses.fields(RunOptions)}

    def test_install_round_trips_into_ambient_state(self):
        """The worker-side entry installs exactly the value it is handed
        around its chunk, whatever the worker's own ambient state."""
        shipped = RunOptions(collect_metrics=True, trace_decisions=0.25)
        with run_options(trace_decisions=0.5):
            outcomes = _exec_chunk((OptionsProbe(), OptionsProbe()),
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
        serial = _run_batch(cells, 1, name, value)
        pooled = _run_batch(cells, 2, name, value)
        for result, reference in zip(pooled, baseline):
            assert took_effect(result, reference)
        # RunResult compares field by field: every simulated number,
        # snapshot, breakdown and trace equals the serial run's.
        assert pooled == serial

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
        results = run_cells(tasks(6, exit_unless_pid=os.getpid()), jobs=2)
        assert results == [i * 2 for i in range(6)]

    @pool_required
    def test_progress_stops_at_the_batch_across_the_serial_rerun(self):
        # Five items finish in the pool and are counted before the last
        # one breaks it, once its siblings have had time to finish in
        # other workers; the serial rerun runs all six again, and each
        # item still counts once.
        assert warm_pool(2)
        items = [*tasks(5), Task(5, exit_unless_pid=os.getpid(),
                                 exit_after_s=0.5)]
        line = ProgressLine(stream=io.StringIO())
        with progress_sink(line):
            results = run_cells(items, jobs=2)
        assert results == [i * 2 for i in range(6)]
        assert line.summary() == {"batches": 1, "items": 6, "finished": 6}
        assert line.weight_done == line.weight == 6.0

    @pool_required
    def test_pool_recreated_after_wholesale_death(self):
        assert warm_pool(2)
        # Breaks the pool.
        run_cells(tasks(4, exit_unless_pid=os.getpid()), jobs=2)
        generation = (pool_info() or {}).get("generation", 0)
        assert run_cells(tasks(6), jobs=2) == [i * 2 for i in range(6)]
        info = pool_info()
        assert info is not None
        assert info["generation"] > generation


class TestProgressFromThePool:
    @pool_required
    def test_each_item_counts_once_under_contention(self):
        # More workers than cores, many chunks, and a short switch
        # interval: the pool's result thread and the batch's final
        # settle race on the tally, and a lost or doubled update would
        # show in the counts.
        assert warm_pool(4)
        items = [Task(x, weight=float(x % 3 + 1)) for x in range(1500)]
        line = ProgressLine(stream=io.StringIO(), render_interval=0.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with progress_sink(line):
                results = run_cells(items, jobs=4)
        finally:
            sys.setswitchinterval(interval)
        assert results == [x * 2 for x in range(1500)]
        assert line.summary() == {"batches": 1, "items": 1500,
                                  "finished": 1500}
        assert line.weight_done == line.weight == \
            sum(x % 3 + 1 for x in range(1500))


class TestChunkPlanner:
    @pool_required
    def test_item_weights_steer_the_plan(self, monkeypatch):
        planned = []

        def spy(weights, jobs):
            planned.append(weights)
            return _plan_chunks(weights, jobs)

        monkeypatch.setattr(executor, "_plan_chunks", spy)
        items = [Task(x, weight=float(x % 3 + 1)) for x in range(6)]
        assert run_cells(items, jobs=2) == [x * 2 for x in range(6)]
        assert planned == [[item.weight for item in items]]

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
