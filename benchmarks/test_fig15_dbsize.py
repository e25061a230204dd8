"""Fig. 15 — throughput vs database size for five configurations."""

from conftest import run_experiment

from repro.bench.experiments import REGISTRY, fig15_dbsize


def test_fig15_dbsize(benchmark):
    result = run_experiment(benchmark, REGISTRY["fig15"])
    sizes = fig15_dbsize.DB_SIZES_QUICK
    small, large = sizes[0], sizes[-1]
    for workload in fig15_dbsize.WORKLOADS:
        dram = result.series[f"{workload}/DRAM-SSD"]
        nvm = result.series[f"{workload}/NVM-SSD"]
        lazy = result.series[f"{workload}/Spf-Lazy"]
        eager = result.series[f"{workload}/Spf-Eager"]
        hymem = result.series[f"{workload}/HyMem"]
        # DRAM-SSD degrades sharply once the database outgrows it.
        assert dram.y_at(small) > 3 * dram.y_at(large), workload
        # NVM-SSD keeps its throughput flat the longest and wins at the
        # largest database size (paper: up to 2.5x on YCSB-RO).
        assert nvm.y_at(large) > dram.y_at(large), workload
        assert nvm.y_at(large) > lazy.y_at(large), workload
        # Spitfire-Lazy is the best three-tier policy at large sizes.
        assert lazy.y_at(large) > eager.y_at(large) * 0.95, workload
        assert lazy.y_at(large) > hymem.y_at(large) * 0.9, workload
    # On the read-only mix while DRAM-cacheable, configurations with
    # DRAM match or beat NVM-SSD (NVM latency is 3-4x DRAM's).
    ro_dram = result.series["YCSB-RO/DRAM-SSD"]
    ro_nvm = result.series["YCSB-RO/NVM-SSD"]
    assert ro_dram.y_at(small) > ro_nvm.y_at(small)
