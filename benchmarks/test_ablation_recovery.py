"""§6.2 claim — NVM persistence absorbs the recovery protocol's flushing."""

from conftest import run_experiment

from repro.bench.experiments import REGISTRY


def test_recovery_overhead(benchmark):
    result = run_experiment(benchmark, REGISTRY["recovery"])
    flush = result.series["flush_ssd_mb"]
    # The three-tier hierarchy persists checkpoint flushes into the NVM
    # buffer; the DRAM-SSD hierarchy pays full-page SSD writes for them.
    assert flush.y_at("DRAM-SSD") > 10 * max(flush.y_at("DRAM-NVM-SSD"), 0.01)
    # Post-crash, the NVM buffer is reconstructed and carries committed
    # state, so redo work does not exceed the two-tier hierarchy's.
    redo = result.series["redo_applied"]
    assert redo.y_at("DRAM-NVM-SSD") <= redo.y_at("DRAM-SSD") * 1.5
    assert result.series["nvm_pages_recovered"].y_at("DRAM-NVM-SSD") > 0
