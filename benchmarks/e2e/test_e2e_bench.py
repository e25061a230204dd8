"""Plumbing tests for the end-to-end benchmark (run explicitly):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py

One ``--smoke`` pass of all five workloads untraced and one traced
(~2 % of the op counts, under 30 s together), then: printed names equal
``BENCHMARK.json``, the generated docs are in sync with ``layers.py``,
trace self times sum to the root, the predicted bypasses hold, and
failure counting works.  ``testpaths`` stays ``tests``: this file is
not part of the tier-1 gate.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUNNER = HERE / "run.py"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run as runner  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(*argv: str, cwd: Path = ROOT, script: Path = RUNNER):
    return subprocess.run([sys.executable, str(script), *argv], cwd=cwd,
                          capture_output=True, text=True, check=False)


def smoke_pass(tmp_path_factory, *extra: str):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    done = invoke("--smoke", "--out", str(out), *extra)
    assert done.returncode == 0, done.stdout + done.stderr
    return done, json.loads(out.read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    return smoke_pass(tmp_path_factory)


@pytest.fixture(scope="module")
def smoke_trace(tmp_path_factory):
    return smoke_pass(tmp_path_factory, "--trace")


def test_names_equal_benchmark_json(smoke, smoke_trace):
    names = [w["name"] for w in BENCHMARK["workloads"]]
    for (done, document), kind in ((smoke, "end_to_end"),
                                   (smoke_trace, "per_layer")):
        assert document["smoke"] is True
        assert list(document["workloads"]) == names
        declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        for name, record in document["workloads"].items():
            assert record["correct"] and record["failed"] == 0
            printed = {m: e["unit"] for m, e in record["metrics"].items()}
            assert printed == declared
            for metric, unit in declared.items():
                assert any(line.startswith(name) and f" {metric} " in line
                           and f" {unit}" in line
                           for line in done.stdout.splitlines()), metric
    assert all(e["value"] > 0 for r in smoke[1]["workloads"].values()
               for e in r["metrics"].values())


def test_benchmark_json_meets_the_contract():
    assert list(BENCHMARK) == ["command", "paths", "run_seconds", "workloads",
                               "end_to_end", "per_layer"]
    assert BENCHMARK["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    assert len(BENCHMARK["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.\-]{1,16}", m["unit"])
               and re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}", m["name"])
               for kind in ("end_to_end", "per_layer")
               for m in BENCHMARK[kind])


def test_generated_docs_are_in_sync():
    assert (ROOT / "BENCHMARK.json").read_text() == runner.benchmark_json()
    readme = (HERE / "README.md").read_text()
    assert runner.README_BEGIN in readme
    assert runner.synced_readme(readme) == readme


def test_trace_self_times_sum_to_root(smoke_trace):
    for name in workloads.WORKLOADS:
        trace = json.loads((HERE / ".work" / f"trace-{name}.json").read_text())
        assert trace["workload"] == name and trace["unresolved"] == []
        self_sum = sum(edge["self_s"] for edge in trace["edges"])
        assert trace["root_s"] > 0
        assert abs(self_sum - trace["root_s"]) <= 0.01 * trace["root_s"]
        assert trace["raw_spans"], "no spans recorded"


def test_predicted_bypasses_hold(smoke_trace):
    records = smoke_trace[1]["workloads"]

    def calls(workload: str, span: str) -> float:
        return records[workload]["metrics"][f"{span}.calls"]["value"]

    assert calls("ycsb_ro_hit", "wal.append") == 0
    assert calls("ycsb_ro_hit", "core.miss") == 0
    assert calls("ycsb_ro_miss", "wal.append") == 0
    assert calls("ycsb_ro_miss", "core.miss") > 0
    assert calls("tpcc_wal", "wal.append") >= calls("tpcc_wal", "core.write") > 0
    cells = ("ycsb_ro_hit", "ycsb_ro_miss", "tpcc_wal")
    for workload in (*cells, "suite_cli"):
        for span in layers.SPAN_NAMES:
            if span.startswith("serve."):
                assert calls(workload, span) == 0, (workload, span)
    for workload in (*cells, "serve_live"):
        for span in ("core.fine_grained", "obs.hub", "wal.recovery"):
            assert calls(workload, span) == 0, (workload, span)
    assert calls("suite_cli", "wal.recovery") > 0
    for record in records.values():
        assert record["metrics"]["bench.unresolved_spans"]["value"] == 0


def test_non_ok_reply_raises_error_rate(monkeypatch):
    from repro.serve import protocol

    decode = protocol.decode_message

    def every_seventh_reply_refused(body: bytes) -> dict:
        message = decode(body)
        if "ok" in message and message.get("seq", 0) % 7 == 3:
            message["ok"] = False
        return message

    monkeypatch.setattr(protocol, "decode_message",
                        every_seventh_reply_refused)
    workload = workloads.ServeLive(seed=3, smoke=True)
    rep = workload.repetition()
    assert 0 < rep.failed < rep.attempted
    args = argparse.Namespace(seed=3, smoke=True, trace=0,
                              expected=str(runner.EXPECTED))
    record = runner.finish_record(args, workload, [rep], {}, [])
    assert not record["correct"]
    assert record["error_rate"] == rep.failed / rep.attempted > 0


def test_corrupted_expected_digest_fails_every_op(tmp_path):
    table = json.loads(runner.EXPECTED.read_text())
    table["smoke"]["ycsb_ro_hit"]["digest"] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(table))
    done = invoke("--smoke", "--workload", "ycsb_ro_hit",
                  "--expected", str(corrupted))
    assert done.returncode != 0
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0  # error_rate = 1


def test_compare_refuses_smoke_and_flags_regressions(smoke, tmp_path):
    document = smoke[1]
    smoke_file = tmp_path / "smoke.json"
    smoke_file.write_text(json.dumps(document))
    refused = invoke("--compare", str(smoke_file), str(smoke_file))
    assert refused.returncode != 0 and "--smoke" in refused.stderr

    base = dict(document, smoke=False)
    slower = json.loads(json.dumps(base))
    slower["workloads"]["tpcc_wal"]["metrics"]["wall_s"]["value"] *= 1.5
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(base))
    b.write_text(json.dumps(slower))
    assert invoke("--compare", str(a), str(a)).returncode == 0
    flagged = invoke("--compare", str(a), str(b))
    assert flagged.returncode == 1
    assert sum("OUTSIDE" in line
               for line in flagged.stdout.splitlines()) == 1


def test_exits_non_zero_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: nothing to run."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    script = tmp_path / "benchmarks" / "e2e" / "run.py"
    done = invoke("--workload", "ycsb_ro_hit", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path, script=script)
    assert done.returncode != 0
    assert not done.stdout.strip()
