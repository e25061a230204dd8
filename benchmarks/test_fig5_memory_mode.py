"""Fig. 5 — equi-cost NVM-SSD (app direct) vs DRAM-SSD (memory mode)."""

from conftest import run_experiment

from repro.bench.experiments import REGISTRY, fig5_memory_mode


def test_fig5_memory_mode(benchmark):
    result = run_experiment(benchmark, REGISTRY["fig5"])
    sizes = fig5_memory_mode.DB_SIZES_QUICK
    small, large = sizes[0], sizes[-1]
    for workload in ("YCSB-RO", "YCSB-BA", "TPC-C"):
        nvm = result.series[f"{workload}/NVM-SSD"]
        mem = result.series[f"{workload}/DRAM-SSD(mem)"]
        # Once the database outgrows the memory-mode buffer, the bigger
        # app-direct NVM buffer wins decisively (paper: up to 6x).
        assert nvm.y_at(large) > 1.5 * mem.y_at(large), workload
    # While DRAM-cacheable, memory mode is at least competitive on the
    # read-only mix (paper: up to 1.12x in its favour).
    ro_nvm = result.series["YCSB-RO/NVM-SSD"]
    ro_mem = result.series["YCSB-RO/DRAM-SSD(mem)"]
    assert ro_mem.y_at(small) > ro_nvm.y_at(small)
