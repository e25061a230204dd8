"""Benchmark harness and per-figure experiment reproductions."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "executor": ("current_options", "run_options", "shutdown_pool",
                 "warm_pool"),
    "harness": ("RunConfig", "RunOptions", "RunResult", "WorkloadRunner"),
    "reporting": ("ExperimentResult", "Series"),
})
