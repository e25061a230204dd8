"""Fig. 11 — optimal loading granularity on Optane is 256 B."""

from conftest import run_experiment

from repro.bench.experiments import REGISTRY


def test_fig11_granularity(benchmark):
    result = run_experiment(benchmark, REGISTRY["fig11"])
    series = result.series["HyMem"]
    # Throughput peaks at the 256 B media granularity, not HyMem's
    # original 64 B cache-line unit.
    assert series.peak_x == 256
    assert series.y_at(256) > series.y_at(64)
    assert series.y_at(256) >= series.y_at(512)
    # 64 B loading loses measurably (paper: ~1.1x).
    assert series.y_at(256) / series.y_at(64) > 1.05
