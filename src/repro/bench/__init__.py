"""Benchmark harness and per-figure experiment reproductions."""

from .executor import (
    RunSession,
    current_options,
    metrics_collection,
    run_options,
    run_session,
    shutdown_pool,
    warm_pool,
)
from .harness import RunConfig, RunOptions, RunResult, WorkloadRunner
from .reporting import ExperimentResult, Series

__all__ = [
    "ExperimentResult",
    "RunConfig",
    "RunOptions",
    "RunResult",
    "RunSession",
    "Series",
    "WorkloadRunner",
    "current_options",
    "metrics_collection",
    "run_options",
    "run_session",
    "shutdown_pool",
    "warm_pool",
]
