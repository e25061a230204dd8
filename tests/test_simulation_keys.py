"""A cell is its simulation: each distinct cell runs once per session.

Two cells that compare equal (the label is display-only) are one
simulation, so a run session hands every figure that declares a cell
the one stored result.  These tests pin down:

* the suite's count at quick effort — cells declared, distinct, and
  ``run_cell`` calls inside one session;
* reuse across batches at ``jobs`` 1 and 2: one run per key, results
  and merged metrics exports equal to running every batch alone;
* a failing shared cell fails every requester, naming its own cell.
"""

from __future__ import annotations

import contextvars
import sys
import threading

import pytest

from repro.bench import executor
from repro.bench.executor import (
    Cell,
    CellExecutionError,
    Effort,
    cell_tally,
    metrics_collection,
    run_cells,
    run_session,
)
from repro.bench.experiments import REGISTRY, fig10_adaptive
from repro.bench.experiments.common import sweep_cell
from repro.bench.harness import RunResult
from repro.core.policy import SPITFIRE_LAZY
from repro.core.stats import BufferStats
from repro.hardware.pricing import HierarchyShape
from repro.obs.export import merge_snapshots, prometheus_text, \
    snapshot_jsonl_lines

#: Quick ``--all``: cells the experiments declare, and how many of them
#: are distinct simulations.  Figs. 6-8 re-declare Table 2's grid;
#: Fig. 12's HyMem +fine-grained YCSB-RO cell is Fig. 11's 256 B one; and
#: Fig. 13's HyMem/YCSB-RO and Spitfire-Lazy/YCSB-RO cells are Fig. 11's
#: 256 B and Fig. 12's YCSB-RO/Spf-Lazy/+fine-grained (a worker count is
#: read off the result, so it does not split a simulation).
DECLARED_CELLS = 323
DISTINCT_CELLS = 276

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


class TestSuiteCount:
    def test_quick_suite_simulates_each_distinct_cell_once(self, monkeypatch):
        calls: list[Cell] = []

        def record(cell: Cell) -> RunResult:
            calls.append(cell)
            return _stub_result(cell)

        monkeypatch.setattr(executor, "run_cell", record)
        # Fig. 10 declares no cell; keep its adaptive loop short.
        monkeypatch.setattr(fig10_adaptive, "EPOCHS_QUICK", 2)
        monkeypatch.setattr(fig10_adaptive, "OPS_PER_EPOCH_QUICK", 50)
        with run_session(jobs=1) as session, cell_tally() as tally:
            for run in REGISTRY.values():
                run(quick=True, jobs=1)
        assert tally == {"cells": DECLARED_CELLS,
                         "reused": DECLARED_CELLS - DISTINCT_CELLS}
        assert len(set(calls)) == DISTINCT_CELLS
        assert len(calls) == DISTINCT_CELLS
        assert (session.simulated, session.reused) == \
            (DISTINCT_CELLS, DECLARED_CELLS - DISTINCT_CELLS)
        assert f"{DISTINCT_CELLS} cells simulated, " \
            f"{DECLARED_CELLS - DISTINCT_CELLS} reused" in session.describe()

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


#: Two batches that share two of their three simulations, in different
#: orders and under different labels.
FIRST = [tiny_cell("a/x", seed=3), tiny_cell("a/y", seed=4),
         tiny_cell("a/z", seed=5)]
SECOND = [tiny_cell("b/y", seed=4), tiny_cell("b/w", seed=6),
          tiny_cell("b/x", seed=3)]


class TestReuseAcrossBatches:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shared_keys_run_once_and_match_standalone(self, jobs):
        standalone = []
        for batch in (FIRST, SECOND):
            with metrics_collection() as sink:
                results = run_cells(batch, jobs=jobs)
            standalone.append((results, sink))
        sessioned = []
        with run_session(jobs=jobs) as session:
            for batch in (FIRST, SECOND):
                with metrics_collection() as sink:
                    results = run_cells(batch, jobs=jobs)
                sessioned.append((results, sink))
        # Four distinct simulations among six declared cells.
        assert (session.simulated, session.reused) == (4, 2)
        assert session.items == 4
        for (alone, alone_sink), (shared, shared_sink) in \
                zip(standalone, sessioned):
            assert shared == alone
            assert [label for label, _ in shared_sink] == \
                [label for label, _ in alone_sink]
            assert _exports(shared_sink) == _exports(alone_sink)

    def test_each_key_reaches_run_cell_once(self, monkeypatch):
        calls: list[str] = []
        real = executor.run_cell

        def counting(cell: Cell) -> RunResult:
            calls.append(cell.label)
            return real(cell)

        monkeypatch.setattr(executor, "run_cell", counting)
        with run_session(jobs=1):
            first = run_cells(FIRST)
            second = run_cells(SECOND)
        assert calls == ["a/x", "a/y", "a/z", "b/w"]
        assert second[0] is first[1] and second[2] is first[0]

    def test_options_are_part_of_the_key(self):
        with run_session(jobs=1) as session:
            bare = run_cells(FIRST[:1])
            with metrics_collection():
                collected = run_cells(FIRST[:1])
        assert session.simulated == 2
        assert bare[0].metrics is None and collected[0].metrics is not None

    def test_tenant_results_carry_the_requesters_label(self):
        from repro.workloads.tenancy import TenantSpec

        tenants = (TenantSpec("solo", db_gigabytes=10.0),)
        cells = [Cell.multi_tenant(label, SHAPE, SPITFIRE_LAZY, tenants,
                                   effort=TINY)
                 for label in ("first", "second")]
        with run_session(jobs=1) as session:
            results = run_cells(cells)
        assert session.simulated == 1
        assert [r.label for r in results] == ["first", "second"]

    def test_concurrent_drivers_wait_instead_of_rerunning(self):
        """Two driver threads declaring the same keys in opposite
        orders: every key runs once and neither driver hangs."""
        results: dict[str, list] = {}

        def drive(name: str, cells: list[Cell]) -> None:
            results[name] = run_cells(cells, jobs=2)

        with run_session(jobs=2) as session:
            threads = [
                threading.Thread(target=contextvars.copy_context().run,
                                 args=(drive, name, cells))
                for name, cells in (("fwd", FIRST), ("rev", FIRST[::-1]))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert session.simulated == 3 and session.reused == 3
        assert results["rev"] == results["fwd"][::-1]


class TestClaimStress:
    def test_many_drivers_run_each_key_once(self, monkeypatch):
        """Eight driver threads (more than cores) over overlapping,
        reordered batches with a tiny switch interval: a lost claim
        would run some key twice or hang a waiter."""
        calls: list[Cell] = []
        lock = threading.Lock()

        def record(cell: Cell) -> RunResult:
            with lock:
                calls.append(cell)
            return _stub_result(cell)

        monkeypatch.setattr(executor, "run_cell", record)
        cells = [tiny_cell(f"k{seed}", seed=seed) for seed in range(24)]
        batches = [cells[offset:] + cells[:offset] for offset in range(8)]
        results: dict[int, list] = {}

        def drive(index: int) -> None:
            results[index] = run_cells(batches[index])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with run_session(jobs=1) as session:
                threads = [
                    threading.Thread(target=contextvars.copy_context().run,
                                     args=(drive, index))
                    for index in range(len(batches))
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(cell.label for cell in calls) == \
            sorted(cell.label for cell in cells)
        assert (session.simulated, session.reused) == (24, 7 * 24)
        for index, batch in enumerate(batches):
            assert [r.label for r in results[index]] == \
                [cell.label for cell in batch]


class TestSharedFailure:
    def test_every_requester_raises_naming_its_own_cell(self):
        doomed = [tiny_cell("first/doomed", db_gb=-5.0),
                  tiny_cell("second/doomed", db_gb=-5.0)]
        with run_session(jobs=1) as session:
            for cell in doomed:
                with pytest.raises(CellExecutionError) as excinfo:
                    run_cells([tiny_cell("ok"), cell])
                assert excinfo.value.cell is cell
                assert cell.label in str(excinfo.value)
        assert session.simulated == 2  # "ok" and the doomed simulation

    def test_concurrent_requesters_all_fail(self):
        errors: dict[str, BaseException] = {}
        doomed = {name: tiny_cell(f"{name}/doomed", db_gb=-5.0)
                  for name in ("left", "right")}

        def drive(name: str) -> None:
            try:
                run_cells([tiny_cell(f"{name}/ok", seed=9), doomed[name]],
                          jobs=2)
            except CellExecutionError as exc:
                errors[name] = exc

        with run_session(jobs=2):
            threads = [
                threading.Thread(target=contextvars.copy_context().run,
                                 args=(drive, name))
                for name in doomed
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert {name: errors[name].cell for name in errors} == doomed
