"""Replacement policies by name, for configuration code and the
replacement ablation bench."""

from __future__ import annotations

from .base import ReplacementPolicy
from .clock import ClockReplacer
from .fifo import FifoReplacer
from .lru import LruReplacer

POLICIES: dict[str, type[ReplacementPolicy]] = {
    "clock": ClockReplacer,
    "lru": LruReplacer,
    "fifo": FifoReplacer,
}


def make_replacer(name: str, capacity: int) -> ReplacementPolicy:
    """Instantiate a replacement policy by name."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replacement policy {name!r}; choose from {sorted(POLICIES)}"
        ) from None
    return cls(capacity)
