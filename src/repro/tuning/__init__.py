"""Adaptive data migration: simulated annealing over policies (§4)."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(globals(), {
    "annealing": ("PROBABILITY_LEVELS", "PolicyAnnealer", "temperature",
                  "throughput_cost"),
    "controller": ("AdaptiveController", "EpochRecord"),
})
