"""Fig. 14 — storage-system design by perf/price grid search."""

from conftest import run_experiment

from repro.bench.experiments import REGISTRY


def test_fig14_design(benchmark):
    result = run_experiment(benchmark, REGISTRY["fig14"])
    cost = result.series["cost ($)"]
    # (a) The cost grid follows Table 1 prices exactly.
    assert cost.y_at("D0/N40") == 40 * 4.5 + 200 * 2.8
    assert cost.y_at("D32/N160") == 32 * 10 + 160 * 4.5 + 200 * 2.8

    def best_key(workload):
        series = result.series[f"{workload} (ops/s/$)"]
        return series.peak_x

    # (d) Write-heavy: the NVM-SSD hierarchy (no DRAM) delivers the best
    # perf/price — no dirty-page flushing (paper's headline for 14d).
    assert best_key("YCSB-WH").startswith("D0/"), best_key("YCSB-WH")
    # (b) Read-only: a three-tier hierarchy with DRAM on top wins.
    assert not best_key("YCSB-RO").startswith("D0/"), best_key("YCSB-RO")
    # (c) Balanced: NVM capacity dominates the winner.
    assert best_key("YCSB-BA").endswith("N160") or best_key("YCSB-BA").endswith("N80")
