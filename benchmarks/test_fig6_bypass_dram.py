"""Fig. 6 — performance impact of bypassing DRAM (D sweep)."""

from conftest import run_experiment

from repro.bench.experiments import REGISTRY, fig6_bypass_dram


def test_fig6_bypass_dram(benchmark):
    result = run_experiment(benchmark, REGISTRY["fig6"])
    for workload in fig6_bypass_dram.WORKLOADS:
        for workers in ("1w", "16w"):
            series = result.series[f"{workload}/{workers}"]
            lazy = series.y_at(0.01)
            eager = series.y_at(1.0)
            disabled = series.y_at(0.0)
            # Lazy DRAM migration beats eager (paper: up to 1.58x).
            assert lazy > eager, f"{workload}/{workers}"
            # Disabling DRAM outright loses to the lazy optimum
            # (paper: ~20% drop from the peak).
            assert lazy > disabled, f"{workload}/{workers}"
    # The YCSB-RO single-worker gap is substantial.
    ro = result.series["YCSB-RO/1w"]
    assert ro.y_at(0.01) / ro.y_at(1.0) > 1.2
