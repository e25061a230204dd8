"""Table 2 — inclusivity ratio of the DRAM and NVM buffers."""

from conftest import run_experiment

from repro.bench.experiments import REGISTRY


def test_table2_inclusivity(benchmark):
    result = run_experiment(benchmark, REGISTRY["table2"])
    for label, series in result.series.items():
        # Probability 0 disables the relevant migrations entirely: no
        # duplication is possible.
        assert series.y_at(0.0) == 0.0, label
        # The eager policy duplicates the most.
        assert series.y_at(1.0) >= series.y_at(0.01) - 1e-9, label
        # All values are valid ratios.
        assert all(0.0 <= y <= 1.0 for y in series.ys), label
    # The eager corner approaches the DRAM:union capacity bound (~0.25
    # for the 12.5/50 GB hierarchy) on YCSB.
    eager_ro = result.series["Bypassing DRAM (D)/YCSB-RO"].y_at(1.0)
    assert 0.15 <= eager_ro <= 0.35
