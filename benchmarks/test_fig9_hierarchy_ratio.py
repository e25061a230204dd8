"""Fig. 9 — optimal D across DRAM:NVM capacity ratios."""

from conftest import run_experiment

from repro.bench.experiments import REGISTRY


def test_fig9_hierarchy_ratio(benchmark):
    result = run_experiment(benchmark, REGISTRY["fig9"])
    gains = {}
    for label, series in result.series.items():
        # Eager is never the optimum on any ratio.
        assert series.peak_x != 1.0, label
        gains[label] = series.y_at(0.01) / series.y_at(0.0)
    # The utility of lazy DRAM migration grows with the DRAM:NVM ratio
    # (paper: at 1:8 the optimum degenerates to D = 0; at 1:2 the lazy
    # D = 0.01 clearly wins).
    assert gains["1:2"] > gains["1:4"] > gains["1:8"]
    assert gains["1:2"] > 1.05
