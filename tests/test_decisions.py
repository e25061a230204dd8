"""Decision tracing: probe wiring, sampling, hub merge, JSONL export."""

import json
import random

import pytest

from conftest import make_bm

from repro.core.buffer_manager import BufferManagerConfig
from repro.core.policy import HYMEM_POLICY
from repro.obs.decisions import DecisionRecorder, decision_trace_jsonl_lines
from repro.obs.export import write_jsonl
from repro.obs.hub import MetricsHub


def drive(bm, ops: int = 400, pages: int = 64, seed: int = 7) -> None:
    """A deterministic read/write mix that forces tier crossings."""
    rng = random.Random(seed)
    page_ids = [bm.allocate_page() for _ in range(pages)]
    for _ in range(ops):
        page = rng.choice(page_ids)
        if rng.random() < 0.5:
            bm.read(page)
        else:
            bm.write(page)


def hymem_queue_bm():
    """Tiny DRAM + HyMem admission queue: evictions consult the queue."""
    return make_bm(policy=HYMEM_POLICY,
                   config=BufferManagerConfig(seed=11,
                                              admission_queue_size=8))


class TestLifecycle:
    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            DecisionRecorder(fraction=1.5)
        with pytest.raises(ValueError):
            DecisionRecorder(fraction=-0.1)

    def test_attach_installs_probe_and_detach_restores(self):
        bm = make_bm()
        prev = bm.engine.probe
        rec = DecisionRecorder().attach(bm)
        assert bm.engine.probe is rec
        rec.detach()
        assert bm.engine.probe is prev
        assert not bm.events.is_subscribed(rec)

    def test_attach_twice_raises(self):
        bm = make_bm()
        rec = DecisionRecorder().attach(bm)
        try:
            with pytest.raises(RuntimeError, match="already attached"):
                rec.attach(bm)
        finally:
            rec.detach()


class TestRecording:
    def test_counters_complete_at_zero_span_fraction(self):
        bm = make_bm()
        rec = DecisionRecorder(fraction=0.0).attach(bm)
        drive(bm)
        rec.detach()
        summary = rec.summary()
        assert summary["spans_recorded"] == 0
        assert summary["decisions"]
        assert summary["eviction_victims"]

    def test_full_fraction_samples_spans(self):
        bm = make_bm()
        rec = DecisionRecorder(fraction=1.0).attach(bm)
        drive(bm)
        rec.detach()
        report = rec.report()
        assert report["spans"]
        kinds = {span["kind"] for span in report["spans"]}
        assert "decision" in kinds
        decision = next(s for s in report["spans"]
                        if s["kind"] == "decision")
        assert {"page", "op", "edge", "admitted", "policy", "knobs",
                "tenant", "sim_ns"} <= set(decision)

    def test_span_cap_counts_drops(self):
        bm = make_bm()
        rec = DecisionRecorder(fraction=1.0, max_spans=5).attach(bm)
        drive(bm)
        rec.detach()
        assert len(rec.spans) == 5
        assert rec.spans_dropped > 0
        assert rec.summary()["spans_dropped"] == rec.spans_dropped

    def test_recorder_does_not_perturb_decisions(self):
        """The probe contract: attaching changes nothing measurable."""
        bare = make_bm()
        drive(bare)
        observed = make_bm()
        rec = DecisionRecorder(fraction=1.0).attach(observed)
        drive(observed)
        rec.detach()
        assert observed.stats.as_dict() == bare.stats.as_dict()
        assert observed.hierarchy.cost.total_ns == bare.hierarchy.cost.total_ns

    def test_queue_introspection_on_hymem_admission(self):
        bm = hymem_queue_bm()
        rec = DecisionRecorder(fraction=1.0).attach(bm)
        drive(bm, ops=600)
        rec.detach()
        summary = rec.summary()
        assert summary["queue_depth_observations"] > 0
        queue_spans = [s for s in rec.spans
                       if s.get("queue_state") is not None]
        assert queue_spans
        state = queue_spans[-1]["queue_state"]
        assert {"considerations", "admissions", "admission_rate"} <= set(state)
        assert state["considerations"] >= state["admissions"]


class TestHubMerge:
    def test_decision_source_merges_once_at_finalize(self):
        bm = make_bm()
        hub = MetricsHub().attach(bm)
        rec = DecisionRecorder(fraction=0.5).attach(bm)
        hub.decision_source = rec
        drive(bm)
        rec.detach()
        hub.detach()
        keys = list(hub.snapshot()["registry"])
        assert any("migration_decisions_total" in key for key in keys)
        assert any("admission_queue_depth" in key for key in keys)
        total = sum(rec.summary()["decisions"].values())
        hub.finalize()  # idempotent: the merge must not double-count
        merged = sum(
            entry["state"]
            for key, entry in hub.snapshot()["registry"].items()
            if "migration_decisions_total" in key
        )
        assert merged == total


class TestJsonl:
    def test_jsonl_round_trip(self, tmp_path):
        bm = make_bm()
        rec = DecisionRecorder(fraction=1.0, max_spans=64).attach(bm)
        drive(bm, ops=200)
        rec.detach()
        report = rec.report()
        lines = decision_trace_jsonl_lines(report, "cell-a")
        path = write_jsonl(tmp_path / "trace.jsonl", lines)
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert all(record["cell"] == "cell-a" for record in records)
        assert records[-1]["record"] == "decision_summary"
        assert records[-1]["spans_recorded"] == len(records) - 1
        span_records = records[:-1]
        assert all(r["record"] == "decision_span" for r in span_records)
        assert [{k: v for k, v in r.items() if k not in ("record", "cell")}
                for r in span_records] == report["spans"]
