"""Stateful property tests: buffer-manager invariants under random ops.

A hypothesis state machine drives a small buffer manager with random
reads, writes, flushes, policy changes, and crash/recover cycles, and
checks structural invariants after every step:

* pool occupancy never exceeds capacity;
* frames and shared-descriptor pointers agree, both directions, and
  the replacer tracks exactly the occupied frames;
* a committed (flushed) write is never silently lost;
* content read back always matches the model's expectation.
"""


from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.core.buffer_manager import BufferManager, BufferManagerConfig
from repro.core.policy import MigrationPolicy, SPITFIRE_EAGER, SPITFIRE_LAZY
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import Tier, SimulationScale

NUM_PAGES = 24

POLICIES = [
    SPITFIRE_EAGER,
    SPITFIRE_LAZY,
    MigrationPolicy(0.0, 0.0, 1.0, 1.0),
    MigrationPolicy(1.0, 1.0, 0.0, 0.0),
    MigrationPolicy(0.5, 0.5, 0.5, 0.5),
]


class BufferManagerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        hierarchy = StorageHierarchy(
            HierarchyShape(1.0, 2.0, 100.0), SimulationScale(pages_per_gb=4)
        )
        self.bm = BufferManager(hierarchy, SPITFIRE_EAGER,
                                BufferManagerConfig(seed=1))
        for page_id in range(NUM_PAGES):
            self.bm.allocate_page(page_id)
        #: page -> (slot -> value) model of *applied* content.
        self.model: dict[int, dict[int, bytes]] = {p: {} for p in range(NUM_PAGES)}

    # ------------------------------------------------------------------
    @rule(page=st.integers(0, NUM_PAGES - 1),
          nbytes=st.sampled_from([64, 100, 1024]))
    def read(self, page, nbytes):
        result = self.bm.read(page, 0, nbytes)
        assert result.served_tier in (Tier.DRAM, Tier.NVM)

    @rule(page=st.integers(0, NUM_PAGES - 1),
          slot=st.integers(0, 3), payload=st.binary(min_size=1, max_size=8))
    def write_record(self, page, slot, payload):
        descriptor = self.bm.fetch_page(page, for_write=True)
        try:
            descriptor.content.write_record(slot, payload)
        finally:
            self.bm.release_page(descriptor)
        self.model[page][slot] = payload

    @rule(page=st.integers(0, NUM_PAGES - 1), slot=st.integers(0, 3))
    def read_record(self, page, slot):
        descriptor = self.bm.fetch_page(page)
        try:
            value = descriptor.content.read_record(slot)
        finally:
            self.bm.release_page(descriptor)
        assert value == self.model[page].get(slot)

    @rule(policy=st.sampled_from(POLICIES))
    def change_policy(self, policy):
        self.bm.set_policy(policy)

    @rule()
    def flush(self):
        self.bm.flush_dirty_dram()

    @rule()
    def flush_all_then_crash_and_recover(self):
        """After a clean flush, a crash must lose nothing."""
        self.bm.flush_all()
        self.bm.simulate_crash()
        self.bm.recover_mapping_table()
        for page, records in self.model.items():
            for slot, expected in records.items():
                durable = self.bm.store.peek(page)
                shared = self.bm.table.get(page)
                nvm_value = None
                if shared is not None and shared.copy_on(Tier.NVM) is not None:
                    nvm_value = shared.copy_on(Tier.NVM).content.read_record(slot)
                assert expected in (durable.read_record(slot), nvm_value), (
                    f"page {page} slot {slot}: lost {expected!r}"
                )

    # ------------------------------------------------------------------
    @invariant()
    def pools_within_capacity(self):
        for pool in self.bm.pools.values():
            assert pool.used_bytes <= pool.capacity_bytes
            assert len(pool) <= pool.max_entries

    @invariant()
    def descriptors_consistent(self):
        """One residency map: a frame holds a descriptor iff the page's
        shared descriptor points at it, and the replacer tracks exactly
        the occupied frames."""
        table = self.bm.table
        for tier, pool in self.bm.pools.items():
            framed = pool.descriptors()
            for descriptor in framed:
                assert pool._frames[descriptor.frame_index] is descriptor
                assert table.get(descriptor.page_id).copy_on(tier) is descriptor
            pointed = {shared.copy_on(tier) for shared in table} - {None}
            assert pointed == set(framed)
            assert len(pool.replacer) == len(pool)

    @invariant()
    def no_stray_pins(self):
        for pool in self.bm.pools.values():
            for descriptor in pool.descriptors():
                assert descriptor.pin_count == 0


BufferManagerMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None,
)
TestBufferManagerStateMachine = BufferManagerMachine.TestCase
