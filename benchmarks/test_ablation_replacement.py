"""Design-choice ablation — CLOCK vs LRU vs FIFO replacement."""

from conftest import run_experiment

from repro.bench.experiments import REGISTRY


def test_replacement_ablation(benchmark):
    result = run_experiment(benchmark, REGISTRY["replacement"])
    for mix, series in result.series.items():
        # CLOCK approximates LRU within a few percent — the paper's
        # rationale for using the cheaper policy.
        assert series.y_at("clock") > 0.9 * series.y_at("lru"), mix
        # Recency-aware policies beat (or at least match) FIFO.
        assert series.y_at("clock") >= 0.98 * series.y_at("fifo"), mix
