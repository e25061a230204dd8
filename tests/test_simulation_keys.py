"""A cell is its simulation: a suite runs the union of declared cells.

Two cells that compare equal (the label is display-only) are one
simulation, so a suite (:func:`~repro.bench.experiments.run_suite`)
runs each distinct cell of the union of its experiments' cells once and
hands every figure that declares it the one result.  These tests pin
down:

* the suite's count at quick effort — items declared, distinct, and
  how many of them are grid cells reaching ``run_cell``;
* reuse across experiments at ``jobs`` 1 and 2: one run per key,
  results and merged metrics exports equal to running every experiment
  alone;
* a failing shared cell names its first declarer, before anything
  reduces.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.bench import executor
from repro.bench.executor import (
    Cell,
    CellExecutionError,
    Effort,
    run_options,
)
from repro.bench.experiments import REGISTRY, fig10_adaptive, run_suite
from repro.bench.experiments.common import sweep_cell
from repro.bench.harness import RunResult
from repro.core.policy import SPITFIRE_LAZY
from repro.core.stats import BufferStats
from repro.hardware.pricing import HierarchyShape
from repro.obs.export import merge_snapshots, prometheus_text, \
    snapshot_jsonl_lines

#: Quick ``--all``: items the experiments declare, and how many of them
#: are distinct simulations.  Figs. 6-8 re-declare Table 2's grid;
#: Fig. 12's HyMem +fine-grained YCSB-RO cell is Fig. 11's 256 B one; and
#: Fig. 13's HyMem/YCSB-RO and Spitfire-Lazy/YCSB-RO cells are Fig. 11's
#: 256 B and Fig. 12's YCSB-RO/Spf-Lazy/+fine-grained (a worker count is
#: read off the result, so it does not split a simulation).  Fig. 10's
#: two adaptive runs and the recovery ablation's two crash/recover pairs
#: are items too, and the rest are grid cells.
DECLARED_ITEMS = 327
DISTINCT_ITEMS = 280
DISTINCT_CELLS = DISTINCT_ITEMS - 4

SHAPE = HierarchyShape(dram_gb=2.0, nvm_gb=4.0, ssd_gb=100.0)
TINY = Effort(warmup_ops=300, measure_ops=600)


def tiny_cell(label: str, seed: int = 3, db_gb: float = 10.0) -> Cell:
    return Cell.ycsb(label, SHAPE, SPITFIRE_LAZY, "YCSB-BA", db_gb,
                     effort=TINY, workload_seed=seed)


def _stub_result(cell: Cell) -> RunResult:
    """A plausible result every experiment can render, simulated by none."""
    return RunResult(
        label=cell.label, operations=cell.effort.measure_ops,
        throughput=1_000.0, stats=BufferStats(),
        inclusivity=0.5, nvm_write_gb=1.0, makespan_ns=1e6,
        resource_usage={"cpu": {"busy_ns": 1e6, "operations": 1,
                                "bytes_moved": 0}},
        tenant_breakdown={
            tenant: {"p50_ns": 1.0, "p99_ns": 2.0, "mean_ns": 1.5}
            for tenant in range(len(cell.tenants))
        } or None,
    )


def experiment(cells, reduced: list | None = None) -> SimpleNamespace:
    """A registry-shaped experiment declaring ``cells`` under their
    labels; it reduces to its runs (noting the call in ``reduced``)."""

    def reduce(quick, runs):
        if reduced is not None:
            reduced.append(runs)
        return runs

    return SimpleNamespace(cells=lambda quick: {cell.label: cell
                                                for cell in cells},
                           reduce=reduce)


class TestSuiteCount:
    def test_quick_suite_simulates_each_distinct_cell_once(self, monkeypatch):
        calls: list[Cell] = []

        def record(cell: Cell) -> RunResult:
            calls.append(cell)
            return _stub_result(cell)

        monkeypatch.setattr(executor, "run_cell", record)
        # Keep Fig. 10's adaptive runs short.
        monkeypatch.setattr(fig10_adaptive, "EPOCHS_QUICK", 2)
        monkeypatch.setattr(fig10_adaptive, "OPS_PER_EPOCH_QUICK", 50)
        figures, _ = run_suite(list(REGISTRY.values()), quick=True, jobs=1)
        declared = sum(len(figure.runs) for figure in figures)
        reused = sum(figure.reused for figure in figures)
        assert (declared, reused) == \
            (DECLARED_ITEMS, DECLARED_ITEMS - DISTINCT_ITEMS)
        assert len(set(calls)) == DISTINCT_CELLS
        assert len(calls) == DISTINCT_CELLS

    def test_label_is_display_only(self):
        one = sweep_cell("D", "YCSB-RO", 0.1, TINY)
        relabelled = Cell.ycsb("another figure's label", one.shape,
                               one.policy, "YCSB-RO", one.workload.db_gb,
                               effort=TINY)
        assert one == relabelled and hash(one) == hash(relabelled)
        # The policy's name stays part of the cell: it reaches the
        # decision trace's labels.
        assert sweep_cell("D", "YCSB-RO", 1.0, TINY) != \
            sweep_cell("N", "YCSB-RO", 1.0, TINY)


def _exports(sink) -> tuple[str, list[str]]:
    text = prometheus_text(merge_snapshots(r.metrics for _, r in sink))
    lines = [line for label, result in sink
             for line in snapshot_jsonl_lines(result.metrics, label)]
    return text, lines


#: Two experiments that share two of their three simulations, in
#: different orders and under different labels.
FIRST = [tiny_cell("a/x", seed=3), tiny_cell("a/y", seed=4),
         tiny_cell("a/z", seed=5)]
SECOND = [tiny_cell("b/y", seed=4), tiny_cell("b/w", seed=6),
          tiny_cell("b/x", seed=3)]


class TestReuseAcrossBatches:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shared_keys_run_once_and_match_standalone(self, jobs):
        with run_options(collect_metrics=True):
            alone = [run_suite([experiment(cells)], jobs=jobs)[0][0]
                     for cells in (FIRST, SECOND)]
            shared, _ = run_suite([experiment(FIRST), experiment(SECOND)],
                                  jobs=jobs)
        # Four distinct simulations among six declared cells.
        assert [figure.reused for figure in shared] == [0, 2]
        for one, suite in zip(alone, shared):
            assert suite.result == one.result
            assert [label for label, _ in suite.runs] == \
                [label for label, _ in one.runs]
            assert _exports(suite.runs) == _exports(one.runs)

    def test_each_key_reaches_run_cell_once(self, monkeypatch):
        calls: list[str] = []
        real = executor.run_cell

        def counting(cell: Cell) -> RunResult:
            calls.append(cell.label)
            return real(cell)

        monkeypatch.setattr(executor, "run_cell", counting)
        (first, second), _ = run_suite([experiment(FIRST),
                                        experiment(SECOND)])
        assert calls == ["a/x", "a/y", "a/z", "b/w"]
        assert second.result["b/y"] is first.result["a/y"]
        assert second.result["b/x"] is first.result["a/x"]

    def test_options_are_part_of_the_key(self):
        # Nothing outlives a suite: the same cell under other options is
        # simulated again, under them.
        (bare,), _ = run_suite([experiment(FIRST[:1])])
        with run_options(collect_metrics=True):
            (collected,), _ = run_suite([experiment(FIRST[:1])])
        assert bare.result["a/x"].metrics is None
        assert collected.result["a/x"].metrics is not None

    def test_tenant_results_carry_the_requesters_label(self):
        from repro.workloads.tenancy import TenantSpec

        tenants = (TenantSpec("solo", db_gigabytes=10.0),)
        cells = [Cell.multi_tenant(label, SHAPE, SPITFIRE_LAZY, tenants,
                                   effort=TINY)
                 for label in ("first", "second")]
        (figure,), _ = run_suite([experiment(cells)])
        assert figure.reused == 1
        assert [result.label for result in figure.result.values()] == \
            ["first", "second"]
        assert [label for label, _ in figure.runs] == ["first", "second"]


class TestSharedFailure:
    def test_shared_failure_names_its_first_declarer(self):
        doomed = tiny_cell("first/doomed", db_gb=-5.0)
        reduced: list = []
        experiments = [
            experiment([tiny_cell("ok"), doomed], reduced),
            experiment([tiny_cell("second/doomed", db_gb=-5.0)], reduced),
        ]
        for jobs in (1, 2):
            with pytest.raises(CellExecutionError) as excinfo:
                run_suite(experiments, jobs=jobs)
            assert excinfo.value.cell is doomed
            assert "first/doomed" in str(excinfo.value)
        assert reduced == []
