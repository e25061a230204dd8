"""The golden-figure gate's command line (benchmarks/check_golden_figures.py)."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / \
    "check_golden_figures.py"


def checker():
    spec = importlib.util.spec_from_file_location("check_golden_figures",
                                                  SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [
    ["table1", "table1"],
    ["table1", "--jobs", "0"],
    ["table1", "--jobs", "-3"],
], ids=" ".join)
def test_usage_error(argv, capsys):
    # An id named twice would be checked twice, and a job count below 1
    # would be taken silently: both are usage errors before any run.
    with pytest.raises(SystemExit) as exc:
        checker().main(argv)
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err
