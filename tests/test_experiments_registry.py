"""Experiment registry integrity and a fast smoke run.

The heavy per-figure runs live in ``benchmarks/``; here we check the
registry covers every table/figure of the paper and that the cheapest
experiment produces a well-formed result end to end.
"""

import json

from repro.bench.experiments import REGISTRY
from repro.bench.reporting import ExperimentResult


class TestRegistry:
    def test_covers_every_paper_table_and_figure(self):
        expected = {
            "table1", "table2",
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
            "fig12", "fig13", "fig14", "fig15",
        }
        assert expected <= set(REGISTRY)

    def test_includes_ablations(self):
        assert "queue_size" in REGISTRY
        assert "replacement" in REGISTRY

    def test_includes_tenant_isolation(self):
        assert "tenants" in REGISTRY

    def test_all_entries_are_callables(self):
        assert all(callable(fn) for fn in REGISTRY.values())


class TestSmokeRun:
    def test_table1_runs_and_renders(self):
        result = REGISTRY["table1"](quick=True)
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == "table1"
        assert result.series
        text = result.render()
        assert "DRAM" in text and "NVM" in text and "SSD" in text

    def test_result_roundtrips_through_json(self, tmp_path):
        result = REGISTRY["table1"](quick=True)
        path = result.save_json(tmp_path)
        assert path.name == "table1.json"
        assert json.loads(path.read_text())["series"].keys() \
            == result.series.keys()
