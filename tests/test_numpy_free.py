"""The numpy-free install simulates what the numpy one does.

numpy is optional (``np_compat``): without it the batch entry points
are loops over the per-op path.  A seeded YCSB cell and a seeded TPC-C
cell, at ``batch_size`` 1 and 1024, run in one interpreter with numpy
blocked and one with numpy as installed; every digest must agree.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

CELLS = """
import hashlib, json, sys
from repro.bench.executor import Cell, Effort, run_cell, run_options
from repro.core.policy import SPITFIRE_LAZY
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale

shape = HierarchyShape(dram_gb=2.0, nvm_gb=8.0, ssd_gb=100.0)
kwargs = dict(effort=Effort(500, 1500), scale=SimulationScale(pages_per_gb=8))
cells = {
    "ycsb": Cell.ycsb("ycsb", shape, SPITFIRE_LAZY, "YCSB-BA", 1.0,
                      workload_seed=5, **kwargs),
    "tpcc": Cell.tpcc("tpcc", shape, SPITFIRE_LAZY, 4.0, workload_seed=5,
                      **kwargs),
}
out = {"digests": {}, "batch_runs": {}}
for name, cell in cells.items():
    for batch_size in (1, 1024):
        with run_options(batch_size=batch_size):
            result = run_cell(cell)
        payload = json.dumps([repr(result.throughput),
                              repr(result.makespan_ns),
                              result.stats.as_dict(),
                              result.resource_usage], sort_keys=True)
        key = f"{name}@{batch_size}"
        out["digests"][key] = hashlib.sha256(payload.encode()).hexdigest()
        out["batch_runs"][key] = result.batch_runs
out["numpy"] = "numpy" in sys.modules
print(json.dumps(out))
"""


def run_cells(block_numpy: bool) -> dict:
    prelude = "import sys; sys.modules['numpy'] = None\n" if block_numpy else ""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", prelude + CELLS], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_numpy_free_cells_match_the_numpy_run():
    bare = run_cells(block_numpy=True)
    with_numpy = run_cells(block_numpy=False)
    assert bare["digests"] == with_numpy["digests"]
    # Batch size is invisible in the results, with numpy or without.
    for digests in (bare["digests"], with_numpy["digests"]):
        assert digests["ycsb@1"] == digests["ycsb@1024"]
        assert digests["tpcc@1"] == digests["tpcc@1024"]
    # Blocked means the per-op loop ran every batch.
    assert set(bare["batch_runs"].values()) == {0}
    if with_numpy["numpy"]:
        assert with_numpy["batch_runs"]["ycsb@1024"] > 0
