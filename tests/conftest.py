"""Shared fixtures: small hierarchies and buffer managers for fast tests."""

from __future__ import annotations

import random
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from repro.core.access_path import AccessPath
from repro.core.buffer_manager import BufferManager, BufferManagerConfig
from repro.core.events import EventBus, EventType
from repro.core.fine_grained import FineGrainedOps
from repro.core.flush_engine import FlushEngine
from repro.core.mapping_table import MappingTable
from repro.core.migration import MigrationEngine
from repro.core.policy import (
    SPITFIRE_EAGER,
    SPITFIRE_LAZY,
    MigrationPolicy,
    PolicySlot,
)
from repro.core.space_manager import SpaceManager
from repro.core.ssd_store import SsdStore
from repro.core.tier_chain import TierChain
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale, Tier

#: A tiny scale so pools hold single-digit page counts.
TINY_SCALE = SimulationScale(pages_per_gb=4)


class RecordedEvent(NamedTuple):
    type: EventType
    page_id: int
    tier: Tier | None
    src: Tier | None
    dirty: bool


class EventRecorder:
    """Bus subscriber keeping every event it is offered, in order."""

    def __init__(self, event_interest=None) -> None:
        self.events: list[RecordedEvent] = []
        if event_interest is not None:
            self.event_interest = frozenset(event_interest)

    def apply_event(self, etype, page_id, tier, src, dirty) -> None:
        self.events.append(RecordedEvent(etype, page_id, tier, src, dirty))


@pytest.fixture
def small_hierarchy() -> StorageHierarchy:
    """2 GB DRAM (8 pages) + 4 GB NVM (16 pages) + 100 GB SSD."""
    return StorageHierarchy(
        HierarchyShape(dram_gb=2.0, nvm_gb=4.0, ssd_gb=100.0), TINY_SCALE
    )


@pytest.fixture
def eager_bm(small_hierarchy: StorageHierarchy) -> BufferManager:
    return BufferManager(small_hierarchy, SPITFIRE_EAGER)


@pytest.fixture
def lazy_bm(small_hierarchy: StorageHierarchy) -> BufferManager:
    return BufferManager(small_hierarchy, SPITFIRE_LAZY)


def make_bm(
    dram_gb: float = 2.0,
    nvm_gb: float = 4.0,
    policy: MigrationPolicy = SPITFIRE_EAGER,
    config: BufferManagerConfig | None = None,
    pages_per_gb: int = 4,
) -> BufferManager:
    """Ad-hoc buffer manager builder for tests needing odd shapes."""
    hierarchy = StorageHierarchy(
        HierarchyShape(dram_gb=dram_gb, nvm_gb=nvm_gb, ssd_gb=100.0),
        SimulationScale(pages_per_gb=pages_per_gb),
    )
    return BufferManager(hierarchy, policy, config)


def make_core(
    dram_gb: float = 2.0,
    nvm_gb: float = 4.0,
    policy: MigrationPolicy = SPITFIRE_EAGER,
    config: BufferManagerConfig | None = None,
    pages_per_gb: int = 4,
    seed: int = 42,
) -> SimpleNamespace:
    """Wire the four-component core by hand, without the facade.

    Exercises the contract that every core component is independently
    constructible from explicit collaborators (chain, table, store,
    engine, bus) — no :class:`BufferManager` involved.
    """
    config = config or BufferManagerConfig(seed=seed)
    hierarchy = StorageHierarchy(
        HierarchyShape(dram_gb=dram_gb, nvm_gb=nvm_gb, ssd_gb=100.0),
        SimulationScale(pages_per_gb=pages_per_gb),
    )
    chain = TierChain.build(hierarchy, config.replacement)
    table = MappingTable()
    store = SsdStore(hierarchy.device(Tier.SSD), hierarchy.page_size)
    events = EventBus()
    slot = PolicySlot(policy)
    engine = MigrationEngine(slot, random.Random(config.seed))
    fine = FineGrainedOps(chain, hierarchy, events, config)
    space = SpaceManager(chain, table, hierarchy, engine, store, events)
    flush = FlushEngine(chain, table, hierarchy, engine, store, events)
    access = AccessPath(chain, table, hierarchy, engine, store, events,
                        slot, config)
    fine.bind(space)
    space.bind(fine, flush)
    flush.bind(space)
    access.bind(space, fine)
    return SimpleNamespace(
        hierarchy=hierarchy, chain=chain, table=table, store=store,
        events=events, slot=slot, engine=engine, fine=fine, space=space,
        flush=flush, access=access,
    )
