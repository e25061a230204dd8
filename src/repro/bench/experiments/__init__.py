"""One experiment module per table/figure of the paper's evaluation.

Each module exposes ``run(quick: bool = True) -> ExperimentResult``.
:data:`REGISTRY` maps experiment ids to their run functions so the CLI
and the benchmark suite can enumerate them; an entry imports its module
on first call, so listing or choosing experiments imports none of them.
"""

from importlib import import_module


def _run_of(module: str):
    """``module``'s ``run``, imported when first called."""
    path = f"{__name__}.{module}"

    def run(*args, **kwargs):
        return import_module(path).run(*args, **kwargs)

    run.module = path
    return run


#: Experiment id -> run callable, in paper order.
REGISTRY = {
    "table1": _run_of("table1_devices"),
    "fig5": _run_of("fig5_memory_mode"),
    "table2": _run_of("table2_inclusivity"),
    "fig6": _run_of("fig6_bypass_dram"),
    "fig7": _run_of("fig7_bypass_nvm"),
    "fig8": _run_of("fig8_nvm_writes"),
    "fig9": _run_of("fig9_hierarchy_ratio"),
    "fig10": _run_of("fig10_adaptive"),
    "fig11": _run_of("fig11_granularity"),
    "fig12": _run_of("fig12_ablation"),
    "fig13": _run_of("fig13_lifetime"),
    "fig14": _run_of("fig14_design"),
    "fig15": _run_of("fig15_dbsize"),
    # Ablations beyond the paper's numbered figures.
    "queue_size": _run_of("queue_size"),
    "recovery": _run_of("recovery_overhead"),
    "replacement": _run_of("replacement_ablation"),
    "tenants": _run_of("tenant_isolation"),
}

__all__ = ["REGISTRY"]
