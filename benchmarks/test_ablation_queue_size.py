"""§6.5 sizing experiment — HyMem admission queue size."""

from conftest import run_experiment

from repro.bench.experiments import REGISTRY, queue_size


def test_queue_size(benchmark):
    result = run_experiment(benchmark, REGISTRY["queue_size"])
    for workload in ("YCSB-RO", "TPC-C"):
        series = result.series[workload]
        # A queue far smaller than the NVM buffer forgets pages before
        # their second consideration, so the NVM buffer starves.
        assert series.y_at(0.5) > 2 * series.y_at(0.031), workload
        # The paper's recommendation: half the NVM page count works
        # well; growing the queue beyond that buys (almost) nothing.
        assert series.y_at(2.0) <= 1.1 * series.y_at(0.5), workload
        assert series.y_at(1.0) <= 1.1 * series.y_at(0.5), workload
