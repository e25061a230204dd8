"""Fig. 10 — simulated-annealing policy adaptation converges."""

from conftest import run_experiment

from repro.bench.experiments import REGISTRY


def test_fig10_adaptive(benchmark):
    result = run_experiment(benchmark, REGISTRY["fig10"])
    for workload in ("YCSB-RO", "YCSB-BA"):
        series = result.series[workload]
        epochs = len(series.ys)
        start = series.ys[0]
        tail = series.ys[-max(3, epochs // 10):]
        converged = sum(tail) / len(tail)
        # Tuning away from the eager start improves throughput
        # (paper: +52% on YCSB-RO).
        assert converged > 1.15 * start, workload
        # The second half is better than the first (convergence trend).
        half = epochs // 2
        first_half = sum(series.ys[:half]) / half
        second_half = sum(series.ys[half:]) / (epochs - half)
        assert second_half > first_half, workload
