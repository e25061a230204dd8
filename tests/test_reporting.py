"""Experiment result containers, rendering, and run-report digests."""

import pytest

from repro.bench.reporting import (
    ExperimentResult,
    Series,
    build_run_summary,
    diff_bench_reports,
    render_bench_diff,
    render_run_summary,
)


class TestSeries:
    def test_add_and_access(self):
        series = Series("s")
        series.add(1, 10.0)
        series.add(2, 20.0)
        assert series.xs == [1, 2]
        assert series.ys == [10.0, 20.0]
        assert series.y_at(2) == 20.0

    def test_y_at_missing(self):
        with pytest.raises(KeyError):
            Series("s").y_at(1)

    def test_peak_x(self):
        series = Series("s")
        series.add("a", 1.0)
        series.add("b", 5.0)
        series.add("c", 3.0)
        assert series.peak_x == "b"

    def test_peak_of_empty(self):
        with pytest.raises(ValueError):
            Series("s").peak_x


class TestExperimentResult:
    def make_result(self) -> ExperimentResult:
        result = ExperimentResult("figX", "A Test Figure")
        series = result.new_series("line-1")
        series.add(0.0, 100.0)
        series.add(1.0, 200.0)
        other = result.new_series("line-2")
        other.add(0.0, 50.0)
        result.note("a note")
        result.metadata["workers"] = 16
        return result

    def test_render_contains_everything(self):
        text = self.make_result().render()
        assert "figX" in text
        assert "line-1" in text
        assert "200.0" in text
        assert "a note" in text
        assert "workers=16" in text

    def test_render_handles_sparse_series(self):
        # line-2 has no point at x=1.0; render must not crash.
        text = self.make_result().render()
        assert "line-2" in text

    def test_render_empty(self):
        text = ExperimentResult("e", "Empty").render()
        assert "Empty" in text

    def test_json_roundtrip(self, tmp_path):
        result = self.make_result()
        path = result.save_json(tmp_path)
        loaded = ExperimentResult.load_json(path)
        assert loaded.experiment_id == "figX"
        assert loaded.series["line-1"].y_at(1.0) == 200.0
        assert loaded.notes == ["a note"]
        assert loaded.metadata["workers"] == 16

    def test_to_dict(self):
        payload = self.make_result().to_dict()
        assert payload["series"]["line-1"] == [[0.0, 100.0], [1.0, 200.0]]


class TestAsciiChart:
    def test_renders_ramp(self):
        result = ExperimentResult("e", "t")
        series = result.new_series("ramp")
        for i in range(20):
            series.add(i, float(i))
        chart = result.ascii_chart("ramp", width=20, height=5)
        lines = chart.splitlines()
        assert "ramp" in lines[0]
        assert len(lines) == 6
        # The last column is taller than the first.
        assert lines[-1][0] == "█"          # baseline filled everywhere
        assert lines[1][-1] == "█"          # peak reaches the top row
        assert lines[1][0] == " "           # start does not

    def test_empty_series(self):
        result = ExperimentResult("e", "t")
        result.new_series("empty")
        assert "(empty)" in result.ascii_chart("empty")

    def test_flat_series_does_not_divide_by_zero(self):
        result = ExperimentResult("e", "t")
        series = result.new_series("flat")
        for i in range(5):
            series.add(i, 7.0)
        chart = result.ascii_chart("flat", width=10, height=4)
        assert "flat" in chart


def sample_records() -> list[dict]:
    return [
        {"experiment_id": "fig6", "title": "Fig 6", "elapsed_s": 12.5,
         "series": 4, "points": 16, "cells": 16, "reused": 16,
         "decisions": {"cells": 16, "spans_recorded": 80,
                       "spans_dropped": 2, "sample_fraction": 0.05}},
        {"experiment_id": "fig7", "title": "Fig 7", "elapsed_s": 7.5,
         "series": 2, "points": 8},
    ]


class TestRunSummary:
    def test_build_without_registry(self):
        summary = build_run_summary(sample_records())
        assert summary["schema"] == "repro-run-summary/1"
        assert summary["total_elapsed_s"] == 20.0
        assert len(summary["experiments"]) == 2
        assert "fault_counters" not in summary
        assert "generated_at" not in summary

    def test_simulate_wall_counts_toward_the_total(self):
        # The suite's one batch is timed apart from each figure's reduce.
        summary = build_run_summary(sample_records(), simulate_s=30.25)
        assert summary["simulate_s"] == 30.25
        assert summary["total_elapsed_s"] == 50.25
        text = render_run_summary(summary)
        assert "simulate      30.2s" in text
        assert "total         50.2s" in text

    def test_build_with_registry_and_telemetry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("migration_decisions_total",
                         {"op": "promote_read", "outcome": "admitted"}).inc(9)
        registry.counter("faults_injected_total", {"kind": "bitflip"}).inc(1)
        registry.counter("unrelated_total").inc(5)
        telemetry = {"cells_seen": 16, "ops_observed": 64000,
                     "events_seen": 120}
        summary = build_run_summary(sample_records(), registry=registry,
                                    telemetry=telemetry, generated_at=123.0)
        assert summary["generated_at"] == 123.0
        assert summary["decision_counters"]["migration_decisions_total"] == {
            "op=promote_read,outcome=admitted": 9
        }
        assert summary["fault_counters"]["faults_injected_total"] == {
            "kind=bitflip": 1
        }
        # Only the catalogued families fold into the digest sections.
        assert "unrelated_total" not in str(summary)
        assert summary["telemetry"] == telemetry

    def test_render_contains_everything(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("eviction_victims_total",
                         {"tier": "DRAM", "victim_class": "dirty"}).inc(3)
        summary = build_run_summary(
            sample_records(), registry=registry,
            telemetry={"cells_seen": 16, "ops_observed": 64000,
                       "events_seen": 120})
        text = render_run_summary(summary)
        assert "== run report ==" in text
        assert "fig6" in text and "Fig 6" in text
        assert "cells  reused" in text
        assert "     16      16  Fig 6" in text
        assert "decisions[fig6]: 80 span(s) (+2 dropped)" in text
        assert "-- decision counters --" in text
        assert "eviction_victims_total{tier=DRAM,victim_class=dirty} = 3" \
            in text
        assert "-- telemetry --" in text
        assert "64,000 ops" in text

    def test_render_empty_summary(self):
        assert "== run report ==" in render_run_summary({"experiments": []})


class TestBenchDiff:
    OLD = {
        "cell_parallel": {"ops_per_second": 1000.0, "wall_seconds": 10.0},
        "cell_with_metrics": {"overhead_fraction": 0.02},
        "gone_metric": 1.0,
        "machine": "boxA",
    }
    NEW = {
        "cell_parallel": {"ops_per_second": 800.0, "wall_seconds": 8.0},
        "cell_with_metrics": {"overhead_fraction": 0.02},
        "fresh_metric": 2.0,
        "machine": "boxB",
    }

    def test_statuses(self):
        diff = diff_bench_reports(self.OLD, self.NEW, tolerance=0.10)
        status = {row["metric"]: row["status"] for row in diff["rows"]}
        assert status["cell_parallel.ops_per_second"] == "regressed"
        assert status["cell_parallel.wall_seconds"] == "improved"
        assert status["cell_with_metrics.overhead_fraction"] == "ok"
        assert status["gone_metric"] == "removed"
        assert status["fresh_metric"] == "added"
        assert "machine" not in status  # non-numeric leaves are skipped
        assert diff["ok"] is False
        assert len(diff["regressions"]) == 1
        assert "cell_parallel.ops_per_second" in diff["regressions"][0]

    def test_loose_tolerance_passes(self):
        diff = diff_bench_reports(self.OLD, self.NEW, tolerance=0.5)
        assert diff["ok"] is True
        assert diff["regressions"] == []

    def test_informational_leaves_never_regress(self):
        diff = diff_bench_reports({"pages": 100.0}, {"pages": 1.0})
        assert diff["ok"] is True
        assert diff["rows"][0]["status"] == "ok"

    def test_render_fail_and_pass(self):
        failing = diff_bench_reports(self.OLD, self.NEW, tolerance=0.10)
        text = render_bench_diff(failing)
        assert "== bench diff ==" in text
        assert "regressed" in text
        assert text.endswith("FAIL: 1 regression(s)")
        passing = diff_bench_reports(self.OLD, self.OLD)
        text = render_bench_diff(passing)
        assert text.endswith("PASS")
        assert "(no rows moved beyond tolerance)" in text

    def test_show_unchanged_includes_ok_rows(self):
        diff = diff_bench_reports(self.OLD, self.OLD)
        text = render_bench_diff(diff, show_unchanged=True)
        assert "cell_with_metrics.overhead_fraction" in text
