"""The batch path vectorises without numpy.

Nothing under ``src/`` imports numpy: a run of top-tier hits is one
per-op charge times its length.  A seeded YCSB cell runs, with metrics
attached, through the default batch path and through Fig. 10's per-op
``run_ycsb_op`` driver, in one interpreter where numpy cannot be
imported and one where it can: the batched runs vectorise whether numpy
is there or not, and every digest agrees.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

CELL = """
import hashlib, json, sys
from repro.bench.executor import Cell, Effort, run_cell, run_options
from repro.bench.harness import WorkloadRunner
from repro.core.policy import SPITFIRE_LAZY
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale

cell = Cell.ycsb("ycsb", HierarchyShape(dram_gb=2.0, nvm_gb=8.0, ssd_gb=100.0),
                 SPITFIRE_LAZY, "YCSB-BA", 1.0, workload_seed=5,
                 effort=Effort(500, 1500),
                 scale=SimulationScale(pages_per_gb=8))
batched = WorkloadRunner.run_ycsb_batch


def per_op(runner, workload, count):
    for _ in range(count):
        runner.run_ycsb_op(workload)


out = {"digests": {}, "batch_runs": {}}
for driver, run_ycsb_batch in (("per_op", per_op), ("batched", batched)):
    WorkloadRunner.run_ycsb_batch = run_ycsb_batch
    with run_options(collect_metrics=True):
        result = run_cell(cell)
    payload = json.dumps([repr(result.throughput), repr(result.makespan_ns),
                          result.stats.as_dict(), result.resource_usage,
                          result.metrics], sort_keys=True)
    out["digests"][driver] = hashlib.sha256(payload.encode()).hexdigest()
    out["batch_runs"][driver] = result.batch_runs
out["numpy"] = sys.modules.get("numpy") is not None
print(json.dumps(out))
"""


def run_cell(block_numpy: bool) -> dict:
    prelude = "import sys; sys.modules['numpy'] = None\n" if block_numpy else ""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", prelude + CELL], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_numpy_free_cells_match_the_numpy_run():
    bare = run_cell(block_numpy=True)
    importable = run_cell(block_numpy=False)
    assert bare["digests"] == importable["digests"]
    # The driver is invisible in the results; the batched run vectorised.
    assert bare["digests"]["per_op"] == bare["digests"]["batched"]
    for out in (bare, importable):
        assert out["batch_runs"]["per_op"] == 0
        assert out["batch_runs"]["batched"] > 0
        assert not out["numpy"]
