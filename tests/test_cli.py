"""The repro-experiments command-line interface."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.bench.executor import Cell, Effort
from repro.bench.experiments import REGISTRY, fig10_adaptive
from repro.bench.reporting import ExperimentResult
from repro.cli import COMMANDS, build_parser, main
from repro.core.policy import SPITFIRE_LAZY
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale


def tiny_experiment(name: str, index: int):
    """A registry entry declaring two small cells of its own."""
    cells = {
        cell: Cell.ycsb(f"{name}/{cell}", HierarchyShape(2.0, 8.0, 100.0),
                        SPITFIRE_LAZY, "YCSB-BA", 25.0,
                        effort=Effort(300, 600),
                        scale=SimulationScale(pages_per_gb=8),
                        workload_seed=3 + index + cell)
        for cell in range(2)
    }

    def reduce(quick, runs):
        result = ExperimentResult(name, f"Tiny CLI check {name}")
        series = result.new_series("ops/s")
        for run_result in runs.values():
            series.add(run_result.label, run_result.throughput)
        return result

    return SimpleNamespace(cells=lambda quick: cells, reduce=reduce)


class TestListing:
    def test_list_prints_all_ids(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(REGISTRY)

    @pytest.mark.parametrize("argv", [["--list", "fig6"], ["--list", "--all"],
                                      ["run", "--list", "fig6", "fig7"]],
                             ids=" ".join)
    def test_list_refuses_a_selection(self, argv, capsys):
        # Listing and running are exclusive: dropping the ids silently
        # would report success for a run that never happened.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--list takes no experiment ids" in capsys.readouterr().err

    def test_no_selection_errors(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment_errors(self):
        with pytest.raises(SystemExit):
            main(["fig99"])


class TestRunning:
    def test_runs_named_experiment(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Device Characteristics" in out
        assert "table1 took" in out

    def test_writes_json_output(self, tmp_path, capsys):
        assert main(["table1", "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "table1.json").read_text())
        assert payload["experiment_id"] == "table1"


class TestTelemetryPlane:
    def test_live_flag_smokes(self, capsys):
        assert main(["table1", "--live"]) == 0
        assert "table1 took" in capsys.readouterr().out

    def test_out_writes_run_summary(self, tmp_path, capsys):
        assert main(["table1", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["schema"] == "repro-run-summary/1"
        assert summary["experiments"][0]["experiment_id"] == "table1"
        assert "generated_at" in summary

    def test_serial_session_reuses_and_says_so(self, tmp_path, capsys,
                                               monkeypatch):
        # Two experiments declaring the same two simulations under
        # their own labels: the second is answered from the first.
        for name in ("tiny_a", "tiny_b"):
            monkeypatch.setitem(REGISTRY, name, tiny_experiment(name, 0))
        assert main(["tiny_a", "tiny_b", "--out", str(tmp_path)]) == 0
        assert "2 cells simulated, 2 reused" in capsys.readouterr().out
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert [(e["cells"], e["reused"]) for e in summary["experiments"]] \
            == [(2, 0), (2, 2)]
        assert (tmp_path / "tiny_a.json").read_text().replace("tiny_a", "X") \
            == (tmp_path / "tiny_b.json").read_text().replace("tiny_b", "X")
        assert summary["simulate_s"] >= 0
        assert summary["total_elapsed_s"] == pytest.approx(
            summary["simulate_s"] + sum(e["elapsed_s"]
                                        for e in summary["experiments"]),
            abs=1e-3)

    def test_suite_output_is_jobs_invariant(self, tmp_path, capsys,
                                            monkeypatch):
        # Two experiments sharing one of their two cells each: the stdout
        # tables, figure JSONs and both metrics exports are byte-identical
        # at any --jobs, with the live line on or off.
        monkeypatch.setitem(REGISTRY, "tiny_a", tiny_experiment("tiny_a", 0))
        monkeypatch.setitem(REGISTRY, "tiny_b", tiny_experiment("tiny_b", 1))
        runs = {}
        for jobs in ("1", "2"):
            for live in ([], ["--live"]):
                out = tmp_path / f"{jobs}{''.join(live)}"
                assert main(["tiny_a", "tiny_b", "--jobs", jobs, *live,
                             "--out", str(out), "--metrics-out",
                             str(out / "metrics.prom")]) == 0
                stdout = capsys.readouterr().out.replace(str(out), "OUT")
                assert "3 cells simulated, 1 reused" in stdout
                runs[out] = [re.sub(r"took [0-9.]+s", "took Xs", stdout)] + [
                    (out / name).read_bytes()
                    for name in ("tiny_a.json", "tiny_b.json",
                                 "metrics.prom", "metrics.jsonl")]
        first, *others = runs.values()
        for out, run in runs.items():
            assert run == first, out.name

    def test_live_needs_no_manager_process(self, tmp_path, capsys,
                                           monkeypatch):
        # Progress is counted in the parent off the results it collects,
        # so a platform without multiprocessing.Manager still sees every
        # cell of the batch finish, pool workers included.
        import multiprocessing

        def no_manager(*args, **kwargs):
            raise OSError("no Manager here")

        monkeypatch.setattr(multiprocessing, "Manager", no_manager)
        monkeypatch.setitem(REGISTRY, "tiny_a", tiny_experiment("tiny_a", 0))
        monkeypatch.setitem(REGISTRY, "tiny_b", tiny_experiment("tiny_b", 1))
        assert main(["tiny_a", "tiny_b", "--jobs", "2", "--live", "--out",
                     str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "run_summary.json").read_text())
        assert summary["telemetry"] == {"batches": 1, "items": 3,
                                        "finished": 3}
        assert re.fullmatch(r"live: 3/3 finished in [0-9.]+s",
                            capsys.readouterr().err.splitlines()[-1])

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_fig10_live_counts_its_adaptive_runs(self, jobs, capsys,
                                                 monkeypatch):
        # Fig. 10's two controller runs are items of the batch, so the
        # line sees them finish.  The epoch counts travel in the items,
        # so the patch reaches pool workers too.
        monkeypatch.setattr(fig10_adaptive, "EPOCHS_QUICK", 2)
        monkeypatch.setattr(fig10_adaptive, "OPS_PER_EPOCH_QUICK", 50)
        assert main(["fig10", "--live", "--jobs", jobs]) == 0
        captured = capsys.readouterr()
        assert re.fullmatch(r"live: 2/2 finished in [0-9.]+s",
                            captured.err.splitlines()[-1])
        assert "2 cells simulated, 0 reused" in captured.out

    def test_report_renders_run_summary(self, tmp_path, capsys):
        assert main(["table1", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "run_summary.json")]) == 0
        out = capsys.readouterr().out
        assert "== run report ==" in out
        assert "table1" in out

    def test_report_diff_flags_regressions(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps({"cell": {"ops_per_second": 1000.0}}))
        new.write_text(json.dumps({"cell": {"ops_per_second": 500.0}}))
        assert main(["report", "--diff", str(old), str(new)]) == 1
        out = capsys.readouterr().out
        assert "regressed" in out
        assert "FAIL: 1 regression(s)" in out
        # A loose tolerance turns the same movement into a pass.
        assert main(["report", "--diff", str(old), str(new),
                     "--tolerance", "0.6"]) == 0
        assert "PASS" in capsys.readouterr().out


class TestChaos:
    def test_chaos_runs_and_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "chaos.json"
        assert main(["chaos", "--seeds", "1", "--policies", "DRAM_SSD",
                     "--out", str(out_path)]) == 0
        text = capsys.readouterr().out
        assert "all invariants held: OK" in text
        report = json.loads(out_path.read_text())
        assert report["ok"] is True
        assert report["policies"] == ["DRAM_SSD"]
        assert report["seeds"] == [1]
        assert report["total_cases"] == len(report["cases"])
        assert report["failures"] == []

    def test_chaos_report_is_jobs_invariant(self, tmp_path, capsys):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        args = ["chaos", "--seeds", "1", "--policies", "DRAM_SSD",
                "--no-tail-faults"]
        assert main(args + ["--jobs", "1", "--out", str(serial)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_chaos_live_does_not_change_report(self, tmp_path, capsys):
        plain = tmp_path / "plain.json"
        live = tmp_path / "live.json"
        args = ["chaos", "--seeds", "1", "--policies", "DRAM_SSD",
                "--no-tail-faults"]
        assert main(args + ["--out", str(plain)]) == 0
        assert main(args + ["--live", "--out", str(live)]) == 0
        assert plain.read_bytes() == live.read_bytes()

    def test_chaos_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--policies", "NO_SUCH_POLICY"])


class TestClosedStdout:
    """A reader that leaves after the first line (``... | head -1``)
    costs no artefact and prints no traceback: the artefacts are the
    bytes an open stdout gets."""

    @staticmethod
    def run_then_close_stdout(argv: list[str]) -> tuple[int, bytes]:
        """Run the CLI in a subprocess whose stdout reader closes after
        the first line; returns its exit status and stderr."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        # Unbuffered, each line is a write of its own: the reader is
        # gone while the child still has lines to print.
        env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": "1"}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        return proc.wait(timeout=120), stderr

    def test_run_writes_its_out_dir(self, tmp_path, capsys):
        closed, kept = tmp_path / "closed", tmp_path / "kept"
        status, stderr = self.run_then_close_stdout(
            ["table1", "--out", str(closed)])
        assert (status, stderr) == (0, b"")
        assert main(["table1", "--out", str(kept)]) == 0
        assert (closed / "table1.json").read_bytes() \
            == (kept / "table1.json").read_bytes()
        assert json.loads((closed / "run_summary.json").read_text())

    def test_chaos_writes_its_report(self, tmp_path, capsys):
        closed, kept = tmp_path / "closed.json", tmp_path / "kept.json"
        args = ["chaos", "--seeds", "1", "--policies", "DRAM_SSD",
                "--no-tail-faults"]
        status, stderr = self.run_then_close_stdout(
            args + ["--out", str(closed)])
        assert (status, stderr) == (0, b"")
        assert main(args + ["--out", str(kept)]) == 0
        assert closed.read_bytes() == kept.read_bytes()


class TestSubcommands:
    def test_run_is_the_default(self, tmp_path, capsys):
        seen = []
        for argv in (["run", "table1"], ["table1"]):
            out_dir = tmp_path / str(len(seen))
            assert main([*argv, "--out", str(out_dir)]) == 0
            out = capsys.readouterr().out.replace(str(out_dir), "OUT")
            seen.append((re.sub(r"took [0-9.]+s", "took Xs", out),
                         (out_dir / "table1.json").read_bytes()))
        assert seen[0] == seen[1]
        assert main(["run", "--list"]) == 0
        listed = capsys.readouterr().out
        assert main(["--list"]) == 0
        assert capsys.readouterr().out == listed

    @pytest.mark.parametrize("command", [[], *([name] for name in COMMANDS)])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*command, "-h"])
        assert exc.value.code == 0
        assert "usage: repro-experiments" in capsys.readouterr().out

    def test_serve_bench_out_writes_the_report(self, tmp_path, capsys):
        from repro.serve.bench import ServeBenchConfig, run_serve_bench
        from repro.serve.slo import slo_report_json

        path = tmp_path / "slo.json"
        assert main(["serve-bench", "--ops", "200", "--out", str(path)]) == 0
        assert path.read_text() == slo_report_json(
            run_serve_bench(ServeBenchConfig(total_ops=200)))


class TestBadInput:
    """A bad value from the command line is a one-line usage error
    (exit 2), never a traceback or a run that dies later."""

    @pytest.mark.parametrize("argv", [
        ["serve-bench", "--policy", "nope"],
        ["serve", "--policy", "nope"],
        ["serve", "--tenants", "0"],
        ["serve", "--fault-rate", "1.5"],
        ["serve-bench", "--max-queue-depth", "0"],
        ["serve-bench", "--rate", "0"],
        ["serve-bench", "--rate-limit", "-1"],
        ["serve-bench", "--ops", "0"],
        ["chaos", "--read-error-rate", "2"],
        ["chaos", "--write-error-rate", "nan"],
        ["fig6", "--jobs", "0"],
        ["table1", "table1"],
        ["run", "table1", "recovery", "table1"],
        ["serve", "--metrics-port", "70000"],
        ["serve", "--port", "70000"],
        ["serve", "--metrics-port", "-1"],
        ["serve", "--dram-gb", "-1"],
        ["serve", "--nvm-gb", "-1"],
        ["serve", "--ssd-gb", "-0.5"],
        ["report", "--tolerance", "-0.1", "--diff", "a", "b"],
        ["chaos", "--seeds", "1", "1"],
        ["chaos", "--policies", "DRAM_SSD", "DRAM_SSD"],
        ["report", "list.json"],
        ["report", "--diff", "list.json", "object.json"],
    ], ids=" ".join)
    def test_usage_error(self, argv, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "list.json").write_text("[1, 2]\n")
        (tmp_path / "object.json").write_text("{}\n")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error: argument" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--max-queue-depth", "4"],
                                      ["--no-admission"]], ids=" ".join)
    def test_queue_flags_are_serve_bench_only(self, flag, capsys):
        """Live, an op runs the moment it is admitted: no queue depth to
        bound, no shedding A-B to run.  The virtual-time twin has both."""
        with pytest.raises(SystemExit) as exc:
            main(["serve", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        args = build_parser().parse_args(["serve-bench", *flag])
        assert (args.max_queue_depth, args.no_admission) \
            == ((4, False) if len(flag) == 2 else (64, True))

    @pytest.mark.parametrize("summary", [
        {"experiments": 3},
        {"experiments": [1]},
        {"experiments": [{"title": "no id"}]},
        {"experiments": [{"experiment_id": "x", "elapsed_s": "slow"}]},
        {"experiments": [{"experiment_id": "x", "decisions": [1]}]},
        {"fault_counters": {"faults_total": 3}},
        {"telemetry": [1]},
    ], ids=json.dumps)
    def test_report_on_a_malformed_summary(self, tmp_path, capsys, summary):
        """A JSON object whose fields have the wrong shape is a usage
        error, as a JSON value that is no object is."""
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(summary))
        with pytest.raises(SystemExit) as exc:
            main(["report", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument summary: {path} is not a run summary" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ["missing.json", "not.json"])
    @pytest.mark.parametrize("diff", [False, True], ids=["summary", "diff"])
    def test_report_on_an_unreadable_file(self, tmp_path, capsys, bad, diff):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"cell": {"ops_per_second": 1.0}}))
        (tmp_path / "not.json").write_text("plain text\n")
        path = str(tmp_path / bad)
        argv = ["report", "--diff", str(good), path] if diff \
            else ["report", path]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"error: cannot read {path}" in capsys.readouterr().err
