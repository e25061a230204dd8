"""The parallel experiment executor: determinism, errors, fast paths.

The executor's contract is that a batch of cells produces *identical*
results at any job count — parallelism is purely a wall-clock lever.
These tests pin that contract down to the byte on a real figure module,
and check that worker failures surface the failing cell's spec instead
of hanging the pool.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from repro.bench.executor import (
    QUICK,
    Cell,
    CellExecutionError,
    Effort,
    WorkloadSpec,
    run_cell,
    run_cells,
)
from repro.bench.experiments import (
    REGISTRY,
    fig6_bypass_dram,
    run_suite,
    selection_error,
)
from repro.core.policy import SPITFIRE_LAZY
from repro.hardware.pricing import HierarchyShape

SHAPE = HierarchyShape(dram_gb=2.0, nvm_gb=4.0, ssd_gb=100.0)

#: Small enough that a whole figure runs in seconds, big enough to
#: exercise warmup + measurement + inclusivity sampling.
TINY = Effort(warmup_ops=300, measure_ops=600)


def tiny_cell(label: str = "tiny") -> Cell:
    return Cell.ycsb(label, SHAPE, SPITFIRE_LAZY, "YCSB-BA", 10.0,
                     effort=TINY)


class TestCellSpec:
    def test_cell_pickles(self):
        cell = tiny_cell()
        clone = pickle.loads(pickle.dumps(cell))
        assert clone == cell

    def test_describe_names_the_workload(self):
        # A failing item is described by its dataclass repr: every field,
        # bm_config included.
        message = str(CellExecutionError(tiny_cell(), ValueError("x")))
        assert "mix='YCSB-BA'" in message
        assert "bm_config=BufferManagerConfig(" in message

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="ycsb", db_gb=10.0, mix="YCSB-XX")

    def test_tpcc_takes_no_mix(self):
        with pytest.raises(ValueError):
            WorkloadSpec(kind="tpcc", db_gb=10.0, mix="YCSB-RO")


class TestDeterminism:
    def test_serial_equals_parallel(self):
        cells = [tiny_cell(f"c{i}") for i in range(3)]
        serial = run_cells(cells, jobs=1)
        parallel = run_cells(cells, jobs=3)
        assert [r.throughput for r in serial] == \
               [r.throughput for r in parallel]
        assert [r.stats for r in serial] == [r.stats for r in parallel]

    def test_fig6_byte_identical_json(self, monkeypatch):
        """The ISSUE acceptance check, shrunk: fig6 at jobs=1 and
        jobs=4 must serialise to byte-identical JSON.  The effort is
        patched down in the *parent* only — workers rebuild everything
        from the pickled cell spec, so the patch proves the spec alone
        determines the result."""
        monkeypatch.setattr(fig6_bypass_dram, "effort", lambda quick: TINY)
        one = REGISTRY["fig6"](quick=True, jobs=1)
        four = REGISTRY["fig6"](quick=True, jobs=4)
        assert json.dumps(one.to_dict(), sort_keys=True) == \
               json.dumps(four.to_dict(), sort_keys=True)

    def test_run_cell_matches_run_cells(self):
        cell = tiny_cell()
        assert run_cell(cell).throughput == \
               run_cells([cell], jobs=1)[0].throughput


@dataclass(frozen=True)
class Doomed:
    """A batch item that is no Cell and raises unless ``ok``."""

    name: str
    ok: bool = False
    weight = 1.0

    def run(self) -> str:
        if not self.ok:
            raise ValueError(f"{self.name} is doomed")
        return self.name


class TestErrors:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_item_is_named_by_its_repr(self, jobs):
        # One rule for every item kind, and the first failure in
        # submission order wins, wherever the items ran.
        items = [Doomed("fine", ok=True), Doomed("first"), Doomed("second")]
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(items, jobs=jobs)
        assert excinfo.value.cell is items[1]
        assert f"item: {items[1]!r}" in str(excinfo.value)
        assert isinstance(excinfo.value.cause, ValueError)

    def test_bad_cell_reports_spec_serial(self):
        bad = Cell.ycsb("doomed", SHAPE, SPITFIRE_LAZY, "YCSB-RO", -5.0,
                        effort=TINY)
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells([bad], jobs=1)
        assert "doomed" in str(excinfo.value)
        assert excinfo.value.cell is bad

    def test_bad_cell_reports_spec_parallel_no_hang(self):
        """A raising cell must fail fast with its spec attached, not
        hang the pool or lose the traceback."""
        cells = [tiny_cell("ok"),
                 Cell.ycsb("doomed", SHAPE, SPITFIRE_LAZY, "YCSB-RO", -5.0,
                           effort=TINY)]
        with pytest.raises(CellExecutionError) as excinfo:
            run_cells(cells, jobs=2)
        assert "doomed" in str(excinfo.value)

    def test_duplicate_batch_key_rejected(self):
        # A suite's batch is keyed by experiment id: one named twice is
        # refused, while equal cells are one key of its union.
        assert "fig6 named twice" in selection_error(["fig6", "table1",
                                                      "fig6"])
        assert selection_error(["fig6", "table1"]) is None


class TestBatch:
    def test_batch_maps_keys_to_results(self):
        declared = {"a": tiny_cell("a"), "b": tiny_cell("b")}
        experiment = SimpleNamespace(cells=lambda quick: declared,
                                     reduce=lambda quick, runs: runs)
        (figure,), _ = run_suite([experiment])
        runs = figure.result
        assert set(runs) == {"a", "b"}
        # Equal cells under two keys are one simulation.
        assert runs["a"] is runs["b"] and figure.reused == 1

    def test_quick_effort_is_smaller(self):
        assert TINY.measure_ops < QUICK.measure_ops
