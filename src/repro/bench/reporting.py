"""Experiment result containers and paper-style text rendering.

Every experiment module produces an :class:`ExperimentResult` holding
named series (x → y maps) plus free-form notes.  The renderer prints
rows in the same orientation as the paper's tables/figures so results
can be eyeballed against the original, and results can be dumped to
JSON for archival.

The module also builds **run summaries** — the artifact behind
``repro-experiments report`` and the CI run-report upload: per-figure
wall timings, decision-trace digests, fault counters, and tenant
breakdowns folded from the merged metrics registry
(:func:`build_run_summary` / :func:`render_run_summary`) — and diffs
two ``BENCH_repro.json``-style wall-clock reports into a regression
table (:func:`diff_bench_reports` / :func:`render_bench_diff`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


@dataclass
class Series:
    """One line of a figure: label plus (x, y) points."""

    label: str
    points: list[tuple[Any, float]] = field(default_factory=list)

    def add(self, x: Any, y: float) -> None:
        self.points.append((x, y))

    @property
    def xs(self) -> list[Any]:
        return [x for x, _ in self.points]

    @property
    def ys(self) -> list[float]:
        return [y for _, y in self.points]

    def y_at(self, x: Any) -> float:
        for px, py in self.points:
            if px == x:
                return py
        raise KeyError(f"series {self.label!r} has no point at x={x!r}")

    @property
    def peak_x(self) -> Any:
        if not self.points:
            raise ValueError("empty series")
        return max(self.points, key=lambda p: p[1])[0]


@dataclass
class ExperimentResult:
    """Everything one table/figure reproduction produced."""

    experiment_id: str
    title: str
    series: dict[str, Series] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    def new_series(self, label: str) -> Series:
        series = Series(label)
        self.series[label] = series
        return series

    def note(self, text: str) -> None:
        self.notes.append(text)

    # ------------------------------------------------------------------
    def render(self, value_format: str = "{:>12.1f}") -> str:
        """Paper-style text table: one row per series, one column per x."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.metadata:
            meta = ", ".join(f"{k}={v}" for k, v in self.metadata.items())
            lines.append(f"   [{meta}]")
        all_xs: list[Any] = []
        for series in self.series.values():
            for x in series.xs:
                if x not in all_xs:
                    all_xs.append(x)
        if all_xs:
            label_width = max((len(s) for s in self.series), default=10) + 2
            header = " " * label_width + "".join(f"{str(x):>12}" for x in all_xs)
            lines.append(header)
            for label, series in self.series.items():
                row = f"{label:<{label_width}}"
                lookup = dict(series.points)
                for x in all_xs:
                    if x in lookup:
                        row += value_format.format(lookup[x])
                    else:
                        row += " " * 12
                lines.append(row)
        for note in self.notes:
            lines.append(f"   note: {note}")
        return "\n".join(lines)

    def ascii_chart(self, label: str, width: int = 60, height: int = 12) -> str:
        """A terminal line chart of one series (for example scripts)."""
        series = self.series[label]
        ys = series.ys
        if not ys:
            return f"{label}: (empty)"
        lo, hi = min(ys), max(ys)
        span = hi - lo or 1.0
        # Resample the series onto the chart width.
        columns = []
        for x_pos in range(width):
            index = min(len(ys) - 1, int(x_pos * len(ys) / width))
            columns.append(int((ys[index] - lo) / span * (height - 1)))
        lines = [f"{label}  [{lo:.3g} .. {hi:.3g}]"]
        for row in range(height - 1, -1, -1):
            lines.append("".join("█" if col >= row else " " for col in columns))
        return "\n".join(lines)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "series": {
                label: [[x, y] for x, y in series.points]
                for label, series in self.series.items()
            },
            "notes": list(self.notes),
            "metadata": dict(self.metadata),
        }

    def save_json(self, directory: str | Path) -> Path:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.experiment_id}.json"
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, default=str)
        return path

    @classmethod
    def load_json(cls, path: str | Path) -> "ExperimentResult":
        with open(path) as fh:
            raw = json.load(fh)
        result = cls(raw["experiment_id"], raw["title"])
        for label, points in raw["series"].items():
            series = result.new_series(label)
            for x, y in points:
                series.add(x, y)
        result.notes = list(raw.get("notes", []))
        result.metadata = dict(raw.get("metadata", {}))
        return result


# ----------------------------------------------------------------------
# Run summaries (repro-experiments report / CI run-report artifact)
# ----------------------------------------------------------------------
#: Counter families the run summary folds out of the merged registry.
_FAULT_FAMILIES = (
    "faults_injected_total",
    "device_retries_total",
    "torn_writes_detected_total",
)
_TENANT_FAMILIES = (
    "tenant_ops_total",
    "tenant_admissions_total",
    "tenant_admission_considerations_total",
)
_DECISION_FAMILIES = (
    "migration_decisions_total",
    "eviction_victims_total",
)


def _counter_families(registry, names: tuple[str, ...]) -> dict:
    """``{family: {label-key: value}}`` for the named counter families."""
    out: dict[str, dict[str, float]] = {name: {} for name in names}
    for series in registry.series():
        if series.name in out and series.kind == "counter":
            key = ",".join(
                f"{k}={v}" for k, v in sorted(series.labels.items())
            ) or "total"
            out[series.name][key] = series.value
    return {name: dict(sorted(values.items()))
            for name, values in out.items() if values}


def build_run_summary(experiments: list[dict], simulate_s: float = 0.0,
                      registry=None, telemetry: dict | None = None,
                      generated_at: float | None = None) -> dict:
    """One JSON-able digest of a whole ``repro-experiments`` run.

    ``experiments`` carries one entry per figure —
    ``{"experiment_id", "title", "elapsed_s", "series", "points",
    "cells", "reused"}`` (its ``reduce`` time, cells declared, and how
    many of them an earlier figure or key already declared) plus an
    optional ``"decisions"`` digest (a
    :meth:`~repro.obs.decisions.DecisionRecorder.summary`-shaped dict).
    ``registry`` is the merged :class:`~repro.obs.metrics.MetricsRegistry`
    when the run collected metrics; fault counters, tenant breakdowns,
    and decision histograms are folded out of it.  ``telemetry`` is a
    :meth:`~repro.bench.telemetry.ProgressAggregator.summary` dict.
    ``simulate_s`` is the wall time of the suite's one batch of cells,
    so ``total_elapsed_s`` is it plus every figure's ``elapsed_s``.
    """
    summary: dict = {
        "schema": "repro-run-summary/1",
        "experiments": [dict(entry) for entry in experiments],
        "simulate_s": round(simulate_s, 3),
        "total_elapsed_s": round(simulate_s + sum(
            entry.get("elapsed_s", 0.0) for entry in experiments), 3),
    }
    if generated_at is not None:
        summary["generated_at"] = generated_at
    if registry is not None:
        summary["fault_counters"] = _counter_families(
            registry, _FAULT_FAMILIES)
        summary["tenant_breakdown"] = _counter_families(
            registry, _TENANT_FAMILIES)
        summary["decision_counters"] = _counter_families(
            registry, _DECISION_FAMILIES)
    if telemetry is not None:
        summary["telemetry"] = dict(telemetry)
    return summary


def render_run_summary(summary: dict) -> str:
    """The run summary as a human-readable report."""
    lines = ["== run report =="]
    experiments = summary.get("experiments", [])
    if experiments:
        width = max(len("simulate"),
                    *(len(e["experiment_id"]) for e in experiments)) + 2
        lines.append(f"{'figure':<{width}}{'wall':>9}  {'series':>6}  "
                     f"{'points':>6}  {'cells':>5}  {'reused':>6}  title")
        for entry in experiments:
            lines.append(
                f"{entry['experiment_id']:<{width}}"
                f"{entry.get('elapsed_s', 0.0):>8.1f}s"
                f"  {entry.get('series', 0):>6}"
                f"  {entry.get('points', 0):>6}"
                f"  {entry.get('cells', 0):>5}"
                f"  {entry.get('reused', 0):>6}"
                f"  {entry.get('title', '')}"
            )
        lines.append(f"{'simulate':<{width}}"
                     f"{summary.get('simulate_s', 0.0):>8.1f}s")
        lines.append(f"{'total':<{width}}"
                     f"{summary.get('total_elapsed_s', 0.0):>8.1f}s")
    for entry in experiments:
        digest = entry.get("decisions")
        if not digest:
            continue
        lines.append(f"   decisions[{entry['experiment_id']}]: "
                     f"{digest.get('spans_recorded', 0)} span(s) "
                     f"(+{digest.get('spans_dropped', 0)} dropped) at "
                     f"fraction {digest.get('sample_fraction', 0)}")
    for section, title in (
        ("decision_counters", "decision counters"),
        ("fault_counters", "fault counters"),
        ("tenant_breakdown", "tenant breakdown"),
    ):
        families = summary.get(section)
        if not families:
            continue
        lines.append(f"-- {title} --")
        for family, values in families.items():
            for key, value in values.items():
                lines.append(f"   {family}{{{key}}} = {value:g}")
    telemetry = summary.get("telemetry")
    if telemetry:
        lines.append(
            f"-- telemetry --\n"
            f"   {telemetry.get('cells_seen', 0)} cell(s) observed, "
            f"{telemetry.get('ops_observed', 0):,} ops, "
            f"{telemetry.get('events_seen', 0)} event(s)"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Wall-clock report diffing (repro-experiments report --diff)
# ----------------------------------------------------------------------
#: Key suffixes that decide a metric's good direction.  Anything else
#: is informational: shown when it moved, never flagged.
_HIGHER_IS_BETTER = ("ops_per_second", "speedup", "speedup_vs_per_op")
_LOWER_IS_BETTER = ("wall_seconds", "overhead_fraction")


def _numeric_leaves(payload: dict, prefix: str = "") -> dict[str, float]:
    leaves: dict[str, float] = {}
    for key in sorted(payload):
        value = payload[key]
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            leaves.update(_numeric_leaves(value, path))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            leaves[path] = float(value)
    return leaves


def _direction(path: str) -> int:
    """+1 higher-is-better, -1 lower-is-better, 0 informational."""
    leaf = path.rsplit(".", 1)[-1]
    if any(leaf.endswith(suffix) for suffix in _HIGHER_IS_BETTER):
        return 1
    if any(leaf.endswith(suffix) for suffix in _LOWER_IS_BETTER):
        return -1
    return 0


def diff_bench_reports(old: dict, new: dict,
                       tolerance: float = 0.10) -> dict:
    """Diff two ``BENCH_repro.json``-style reports into a regression table.

    Every shared numeric leaf becomes a row with the old/new values and
    the relative delta; direction-aware keys (ops/s, speedups: higher
    is better — wall seconds, overhead fractions: lower is better) are
    flagged ``regressed`` when they moved against their direction by
    more than ``tolerance``, ``improved`` when they moved with it.
    Returns ``{"rows": [...], "regressions": [...], "ok": bool}``.
    """
    old_leaves = _numeric_leaves(old)
    new_leaves = _numeric_leaves(new)
    rows: list[dict] = []
    regressions: list[str] = []
    for path in sorted(set(old_leaves) | set(new_leaves)):
        if path not in old_leaves:
            rows.append({"metric": path, "old": None,
                         "new": new_leaves[path], "delta": None,
                         "status": "added"})
            continue
        if path not in new_leaves:
            rows.append({"metric": path, "old": old_leaves[path],
                         "new": None, "delta": None, "status": "removed"})
            continue
        old_value, new_value = old_leaves[path], new_leaves[path]
        delta = ((new_value - old_value) / abs(old_value)
                 if old_value else None)
        direction = _direction(path)
        status = "ok"
        if direction and delta is not None:
            if delta * direction < -tolerance:
                status = "regressed"
                regressions.append(
                    f"{path}: {old_value:g} -> {new_value:g} "
                    f"({delta:+.1%}, tolerance {tolerance:.0%})"
                )
            elif delta * direction > tolerance:
                status = "improved"
        rows.append({"metric": path, "old": old_value, "new": new_value,
                     "delta": delta, "status": status})
    return {"rows": rows, "regressions": regressions,
            "ok": not regressions}


def render_bench_diff(diff: dict, show_unchanged: bool = False) -> str:
    """The regression table as text, worst rows first kept in path order."""
    lines = ["== bench diff =="]
    width = max((len(row["metric"]) for row in diff["rows"]), default=10) + 2
    lines.append(f"{'metric':<{width}}{'old':>14}{'new':>14}{'delta':>9}"
                 f"  status")
    shown = 0
    for row in diff["rows"]:
        if row["status"] == "ok" and not show_unchanged:
            continue
        shown += 1
        old = f"{row['old']:g}" if row["old"] is not None else "-"
        new = f"{row['new']:g}" if row["new"] is not None else "-"
        delta = f"{row['delta']:+.1%}" if row["delta"] is not None else "-"
        lines.append(f"{row['metric']:<{width}}{old:>14}{new:>14}{delta:>9}"
                     f"  {row['status']}")
    if not shown:
        lines.append("   (no rows moved beyond tolerance)")
    lines.append("PASS" if diff["ok"] else
                 f"FAIL: {len(diff['regressions'])} regression(s)")
    return "\n".join(lines)
