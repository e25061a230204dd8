"""Fig. 13 — NVM device lifetime: Spitfire-Lazy vs HyMem write volume."""

from conftest import run_experiment

from repro.bench.experiments import REGISTRY, fig13_lifetime


def test_fig13_lifetime(benchmark):
    result = run_experiment(benchmark, REGISTRY["fig13"])
    lazy = result.series["Spitfire-Lazy"]
    hymem = result.series["HyMem"]
    for workload in fig13_lifetime.WORKLOADS:
        # Spitfire-Lazy trades NVM lifetime for performance: it writes
        # more to NVM than HyMem (paper: 1.05-1.4x; our simulated gap is
        # wider because checkpoint flushes also land in NVM).
        assert lazy.y_at(workload) > hymem.y_at(workload), workload
    # Write volume grows with the update fraction for both systems.
    assert lazy.y_at("YCSB-WH") > lazy.y_at("YCSB-RO")
