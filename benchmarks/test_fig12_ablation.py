"""Fig. 12 / Table 3 — ablation of HyMem's layout optimizations."""

from conftest import run_experiment

from repro.bench.experiments import REGISTRY


def test_fig12_ablation(benchmark):
    result = run_experiment(benchmark, REGISTRY["fig12"])
    # Fine-grained loading helps the eager policies on YCSB-RO
    # (paper: +18% for HyMem, +37% for Spitfire-Eager).
    for policy in ("HyMem", "Spf-Eager"):
        series = result.series[f"YCSB-RO/{policy}"]
        assert series.y_at("+fine-grained") > 1.1 * series.y_at("none"), policy
    # It has only a minuscule effect on the lazy policy (paper's claim).
    lazy = result.series["YCSB-RO/Spf-Lazy"]
    fine_effect = lazy.y_at("+fine-grained") / lazy.y_at("none")
    assert 0.8 < fine_effect < 1.2
    # The migration policy dominates the layout optimizations: baseline
    # lazy beats every fully optimized eager configuration on YCSB-RO.
    lazy_base = lazy.y_at("none")
    for policy in ("HyMem", "Spf-Eager"):
        optimized = result.series[f"YCSB-RO/{policy}"].y_at("+mini-page")
        assert lazy_base > optimized, policy
    # Lazy beats HyMem's fully optimized configuration on TPC-C as well.
    tpcc_lazy = result.series["TPC-C/Spf-Lazy"].y_at("none")
    tpcc_hymem = result.series["TPC-C/HyMem"].y_at("+mini-page")
    assert tpcc_lazy > tpcc_hymem
