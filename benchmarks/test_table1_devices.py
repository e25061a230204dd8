"""Table 1 — device characteristics underpinning the cost model."""

from conftest import run_experiment

from repro.bench.experiments import REGISTRY


def test_table1_devices(benchmark):
    result = run_experiment(benchmark, REGISTRY["table1"])
    latency = result.series["rand read latency (ns)"]
    assert latency.y_at("DRAM") < latency.y_at("NVM") < latency.y_at("SSD")
    price = result.series["price ($/GB)"]
    assert price.y_at("SSD") < price.y_at("NVM") < price.y_at("DRAM")
