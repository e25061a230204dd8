"""Start-up pays only for what a command runs.

A package root imports nothing (its names resolve on first read), the
figure registry imports a figure module on first call, the heavy
stdlib modules load where they are first used, and nothing loads
numpy.  Each budget case runs in a fresh interpreter, so what it loads
is what the command loads, whatever this test process imported before.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.bench.experiments import REGISTRY

SRC = Path(repro.__file__).resolve().parent.parent

#: Loaded by none of the light entry points.
HEAVY = ("numpy", "http.server", "multiprocessing", "concurrent.futures",
         "repro.engine", "repro.serve", "repro.bench.executor")


#: Builds ``bm``: a bare buffer manager, pages 0-3 primed on DRAM.
MANAGER = (
    "from repro.core.buffer_manager import BufferManager\n"
    "from repro.hardware.cost_model import StorageHierarchy\n"
    "from repro.hardware.pricing import HierarchyShape\n"
    "from repro.hardware.specs import Tier\n"
    "from repro.core.policy import SPITFIRE_LAZY\n"
    "bm = BufferManager(StorageHierarchy(HierarchyShape(1, 2, 10)),"
    " SPITFIRE_LAZY)\n"
    "bm.allocate_pages(range(4))\n"
    "for page in range(4): bm.prime_page(Tier.DRAM, page)\n")


def modules_after(code: str) -> set[str]:
    """The ``sys.modules`` keys of a fresh interpreter after ``code``."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def loaded(modules: set[str], names) -> list[str]:
    """Which of ``names`` (or any submodule of one) ``modules`` holds."""
    return sorted(module for module in modules for name in names
                  if module == name or module.startswith(name + "."))


class TestModuleBudget:
    @pytest.mark.parametrize("code", [
        "from repro.cli import main; main(['--list'])",
        "import repro",
        "import repro.core",
    ], ids=["cli --list", "import repro", "import repro.core"])
    def test_light_entry_points_load_nothing_heavy(self, code):
        modules = modules_after(code)
        figures = sorted({entry.module for entry in REGISTRY.values()}
                         & modules)
        assert loaded(modules, HEAVY) == [] and figures == []

    def test_one_read_and_write_loads_no_numpy_or_servers(self):
        modules = modules_after(
            MANAGER + "page = bm.allocate_page()\n"
            "bm.write(page, offset=0, nbytes=100)\n"
            "bm.read(page, offset=0, nbytes=1024)")
        assert loaded(modules, ("numpy", "http.server",
                                "multiprocessing")) == []

    def test_batched_read_with_a_hub_loads_no_numpy(self):
        modules = modules_after(
            MANAGER + "from repro.obs.hub import MetricsHub\n"
            "hub = MetricsHub().attach(bm)\n"
            "bm.read_batch([0, 1, 2, 3], [0, 0, 0, 0], 1024)\n"
            "hub.detach()\n"
            "assert bm.batch_path.fast_runs == 1")
        assert loaded(modules, ("numpy",)) == []

    def test_pool_warm_up_imports_what_a_cell_runs(self):
        modules = modules_after(
            "from repro.bench.executor import _warm_worker; _warm_worker()")
        assert {"repro.bench.harness", "repro.core.buffer_manager",
                "repro.engine.engine"} <= modules


def packages() -> list[str]:
    names = ["repro"]
    names += [info.name for info in pkgutil.walk_packages(repro.__path__,
                                                          "repro.")
              if info.ispkg]
    return names


class TestLazyTables:
    @pytest.mark.parametrize("name", packages())
    def test_every_exported_name_resolves_and_is_listed(self, name):
        package = importlib.import_module(name)
        exported = getattr(package, "__all__", [])
        listed = dir(package)
        for attribute in exported:
            assert getattr(package, attribute) is not None, attribute
            assert attribute in listed, attribute
        with pytest.raises(AttributeError):
            getattr(package, "no_such_name")

    def test_root_names_are_the_defining_modules_objects(self):
        from repro.core.buffer_manager import BufferManager
        from repro.workloads.ycsb import YCSB_RO

        assert repro.BufferManager is BufferManager
        assert repro.YCSB_RO is YCSB_RO


#: Experiment id -> figure module, in paper order.
PAPER_ORDER = {
    "table1": "table1_devices", "fig5": "fig5_memory_mode",
    "table2": "table2_inclusivity", "fig6": "fig6_bypass_dram",
    "fig7": "fig7_bypass_nvm", "fig8": "fig8_nvm_writes",
    "fig9": "fig9_hierarchy_ratio", "fig10": "fig10_adaptive",
    "fig11": "fig11_granularity", "fig12": "fig12_ablation",
    "fig13": "fig13_lifetime", "fig14": "fig14_design",
    "fig15": "fig15_dbsize", "queue_size": "queue_size",
    "recovery": "recovery_overhead", "replacement": "replacement_ablation",
    "tenants": "tenant_isolation",
}


class TestRegistry:
    def test_keys_in_paper_order(self):
        assert list(REGISTRY) == list(PAPER_ORDER)

    def test_each_entry_resolves_to_its_modules_run(self):
        # An entry runs its module's cells and reduce as a suite of one.
        for experiment_id, module in PAPER_ORDER.items():
            entry = REGISTRY[experiment_id]
            assert entry.module == f"repro.bench.experiments.{module}"
            figure = importlib.import_module(entry.module)
            assert callable(figure.cells) and callable(figure.reduce)
