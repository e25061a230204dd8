"""Fig. 8 — impact of bypassing NVM on NVM write volume."""

from conftest import run_experiment

from repro.bench.experiments import REGISTRY, fig8_nvm_writes


def test_fig8_nvm_writes(benchmark):
    result = run_experiment(benchmark, REGISTRY["fig8"])
    for workload in fig8_nvm_writes.WORKLOADS:
        series = result.series[workload]
        # Write volume grows with the migration probability.
        assert series.y_at(0.0) <= series.y_at(0.01) <= series.y_at(1.0) + 1e-9
        # Lazy policies cut NVM writes substantially vs eager
        # (paper: 91.8x on RO, 1.3-1.6x on the write-heavy mixes).
        assert series.y_at(1.0) > 1.5 * max(series.y_at(0.1), 1e-9), workload
    # The relative saving is largest on the read-only mix.
    def reduction(workload):
        series = result.series[workload]
        return series.y_at(1.0) / max(series.y_at(0.1), 1e-9)

    assert reduction("YCSB-RO") > reduction("YCSB-WH")
