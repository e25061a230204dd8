"""The batch path vectorises without numpy.

Nothing under ``src/`` imports numpy: a run of top-tier hits is one
per-op charge times its length.  A seeded YCSB cell runs, with metrics
attached, at ``batch_size`` 1 and 1024, in one interpreter where numpy
cannot be imported and one where it can: the batched runs vectorise
whether numpy is there or not, and every digest agrees.
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
from repro.core.policy import SPITFIRE_LAZY
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale

cell = Cell.ycsb("ycsb", HierarchyShape(dram_gb=2.0, nvm_gb=8.0, ssd_gb=100.0),
                 SPITFIRE_LAZY, "YCSB-BA", 1.0, workload_seed=5,
                 effort=Effort(500, 1500),
                 scale=SimulationScale(pages_per_gb=8))
out = {"digests": {}, "batch_runs": {}}
for batch_size in (1, 1024):
    with run_options(batch_size=batch_size, collect_metrics=True):
        result = run_cell(cell)
    payload = json.dumps([repr(result.throughput), repr(result.makespan_ns),
                          result.stats.as_dict(), result.resource_usage,
                          result.metrics], sort_keys=True)
    out["digests"][batch_size] = hashlib.sha256(payload.encode()).hexdigest()
    out["batch_runs"][batch_size] = result.batch_runs
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
    # Batch size is invisible in the results; the batched run vectorised.
    assert bare["digests"]["1"] == bare["digests"]["1024"]
    for out in (bare, importable):
        assert out["batch_runs"]["1"] == 0 and out["batch_runs"]["1024"] > 0
        assert not out["numpy"]
