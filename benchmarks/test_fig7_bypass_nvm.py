"""Fig. 7 — performance impact of bypassing NVM (N sweep)."""

from conftest import run_experiment

from repro.bench.experiments import REGISTRY


def test_fig7_bypass_nvm(benchmark):
    result = run_experiment(benchmark, REGISTRY["fig7"])
    for workload in ("YCSB-RO", "YCSB-BA", "YCSB-WH"):
        one = result.series[f"{workload}/1w"]
        sixteen = result.series[f"{workload}/16w"]
        lazy_1w = max(one.y_at(0.01), one.y_at(0.1))
        # Lazy NVM migration beats eager on YCSB (paper: 1.25x on RO).
        assert lazy_1w > one.y_at(1.0) * 0.98, workload
        # N = 0 forfeits the NVM buffer and collapses.
        assert one.y_at(0.0) < lazy_1w, workload
        # The collapse deepens with 16 workers (paper: 25% -> 103% gap).
        gap_1w = lazy_1w / one.y_at(0.0)
        lazy_16w = max(sixteen.y_at(0.01), sixteen.y_at(0.1))
        gap_16w = lazy_16w / sixteen.y_at(0.0)
        assert gap_16w > gap_1w, workload
    ro = result.series["YCSB-RO/1w"]
    assert max(ro.y_at(0.01), ro.y_at(0.1)) / ro.y_at(1.0) > 1.15
