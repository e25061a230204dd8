"""One experiment module per table/figure of the paper's evaluation.

Each module declares its work and reduces it:

* ``cells(quick) -> {key: item}`` — every simulation the figure reads,
  under keys of its own choosing: a batch item is a frozen, picklable
  value with ``run()`` and ``weight`` — a
  :class:`~repro.bench.executor.Cell` for a grid point, Fig. 10's
  adaptive runs, the recovery ablation's crash/recover pairs (table1, a
  static table, declares none);
* ``reduce(quick, runs) -> ExperimentResult`` — the figure, from
  ``runs = {key: item.run()}``; it simulates nothing itself.

:func:`run_suite` runs any selection of them as one batch.
:data:`REGISTRY` maps experiment ids to :class:`Experiment` entries in
paper order; an entry imports its module on first use, so listing or
choosing experiments imports none of them, and calling one —
``REGISTRY["fig6"](quick=True, jobs=1)`` — runs the suite of that
figure alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from importlib import import_module


class Experiment:
    """A registry entry: a figure module, imported on first use."""

    def __init__(self, module: str) -> None:
        self.module = f"{__name__}.{module}"

    def cells(self, quick: bool) -> dict:
        return import_module(self.module).cells(quick)

    def reduce(self, quick: bool, runs: dict):
        return import_module(self.module).reduce(quick, runs)

    def __call__(self, quick: bool = True, jobs: int = 1):
        figures, _ = run_suite([self], quick, jobs)
        return figures[0].result


#: Experiment id -> registry entry, in paper order.
REGISTRY = {
    "table1": Experiment("table1_devices"),
    "fig5": Experiment("fig5_memory_mode"),
    "table2": Experiment("table2_inclusivity"),
    "fig6": Experiment("fig6_bypass_dram"),
    "fig7": Experiment("fig7_bypass_nvm"),
    "fig8": Experiment("fig8_nvm_writes"),
    "fig9": Experiment("fig9_hierarchy_ratio"),
    "fig10": Experiment("fig10_adaptive"),
    "fig11": Experiment("fig11_granularity"),
    "fig12": Experiment("fig12_ablation"),
    "fig13": Experiment("fig13_lifetime"),
    "fig14": Experiment("fig14_design"),
    "fig15": Experiment("fig15_dbsize"),
    # Ablations beyond the paper's numbered figures.
    "queue_size": Experiment("queue_size"),
    "recovery": Experiment("recovery_overhead"),
    "replacement": Experiment("replacement_ablation"),
    "tenants": Experiment("tenant_isolation"),
}


def selection_error(ids: list[str]) -> str | None:
    """Why ``ids`` is not a selection of experiments, or None."""
    unknown = [e for e in ids if e not in REGISTRY]
    if unknown:
        return (f"unknown experiment(s): {', '.join(unknown)}; "
                f"choose from {', '.join(REGISTRY)}")
    twice = sorted({e for e in ids if ids.count(e) > 1}, key=ids.index)
    if twice:
        return f"argument experiments: {', '.join(twice)} named twice"
    return None


@dataclass
class Figure:
    """One experiment of a suite, reduced."""

    result: object
    #: ``(item label, result)`` per declared item, in declaration order.
    runs: list
    #: Declared items an earlier figure, or an earlier key of this one,
    #: already declared.
    reused: int
    #: Wall time of this figure's ``reduce``.
    elapsed_s: float

    @property
    def cell_runs(self) -> list:
        """The ``(label, RunResult)`` pairs of the declared cells alone:
        what a metrics sink takes."""
        from ..harness import RunResult

        return [(label, result) for label, result in self.runs
                if isinstance(result, RunResult)]


def run_suite(experiments, quick: bool = True,
              jobs: int = 1) -> tuple[list[Figure], float]:
    """Run ``experiments`` as one batch: ``(figures, simulate_s)``.

    The union of every experiment's items, in order — equal items (a
    cell's label is display-only) are one key, so a simulation several
    figures declare runs once — is one heaviest-first executor batch
    under the ambient :class:`~repro.bench.harness.RunOptions`, timed as
    ``simulate_s``.  A failing item raises
    :class:`~repro.bench.executor.CellExecutionError` naming its first
    declarer's item, before anything reduces.  Then each experiment
    reduces its own results, in order; a tenant result carries the
    label its declarer gave it.
    """
    from ..executor import Cell, run_cells

    declared = [experiment.cells(quick) for experiment in experiments]
    union = list(dict.fromkeys(item for items in declared
                               for item in items.values()))
    started = time.perf_counter()
    simulated = dict(zip(union, run_cells(union, jobs)))
    simulate_s = time.perf_counter() - started
    seen: set = set()
    figures = []
    for experiment, items in zip(experiments, declared):
        distinct = len(seen)
        seen.update(items.values())
        runs = {key: replace(simulated[item], label=item.label)
                if isinstance(item, Cell) and item.tenants
                else simulated[item]
                for key, item in items.items()}
        started = time.perf_counter()
        result = experiment.reduce(quick, runs)
        figures.append(Figure(
            result=result,
            runs=[(item.label, runs[key]) for key, item in items.items()],
            reused=len(items) - (len(seen) - distinct),
            elapsed_s=round(time.perf_counter() - started, 3),
        ))
    return figures, simulate_s


__all__ = ["REGISTRY", "Experiment", "Figure", "run_suite", "selection_error"]
