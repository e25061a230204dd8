"""AccessPath: the chain walk, constructed independently of the facade."""

from conftest import EventRecorder, make_core

from repro.core.access_path import AccessPath, AccessResult
from repro.core.events import EventType
from repro.core.policy import MigrationPolicy, SPITFIRE_EAGER
from repro.hardware.specs import Tier


def collect_events(core):
    return core.events.subscribe(EventRecorder()).events


class TestIndependentConstruction:
    def test_access_path_builds_without_facade(self):
        core = make_core(policy=SPITFIRE_EAGER)
        assert isinstance(core.access, AccessPath)
        page = core.store.allocate().page_id
        result = core.access.access(page, 0, 64, is_write=False)
        assert isinstance(result, AccessResult)
        assert result.served_tier is Tier.DRAM
        assert not result.hit

    def test_second_access_hits(self):
        core = make_core(policy=SPITFIRE_EAGER)
        page = core.store.allocate().page_id
        core.access.access(page, 0, 64, is_write=False)
        result = core.access.access(page, 0, 64, is_write=False)
        assert result.hit and result.served_tier is Tier.DRAM


class TestMissPath:
    def test_eager_fetch_lands_in_nvm_then_climbs(self):
        core = make_core(policy=SPITFIRE_EAGER)
        events = collect_events(core)
        page = core.store.allocate().page_id
        core.access.access(page, 0, 64, is_write=False)
        kinds = [e.type for e in events]
        assert kinds.count(EventType.MISS) == 1
        install = next(e for e in events if e.type is EventType.INSTALL)
        assert install.tier is Tier.NVM  # N_r=1: bottom-up admission wins
        climb = next(e for e in events if e.type is EventType.MIGRATE_UP)
        assert (climb.src, climb.tier) == (Tier.NVM, Tier.DRAM)

    def test_lazy_dram_leaves_page_on_nvm(self):
        # D=0 disables climbing: the NVM install serves the access
        # directly (the DRAM bypass of §3.1).
        core = make_core(policy=MigrationPolicy(0.0, 0.0, 1.0, 1.0))
        page = core.store.allocate().page_id
        result = core.access.access(page, 0, 64, is_write=False)
        assert result.served_tier is Tier.NVM
        assert result.bypassed_dram

    def test_direct_write_marks_nvm_copy_dirty(self):
        core = make_core(policy=MigrationPolicy(0.0, 0.0, 1.0, 1.0))
        page = core.store.allocate().page_id
        core.access.access(page, 0, 64, is_write=True)
        descriptor = core.table.get(page).copy_on(Tier.NVM)
        assert descriptor.dirty


class TestPolicySnapshot:
    def test_policy_swap_applies_to_next_access(self):
        core = make_core(policy=MigrationPolicy(0.0, 0.0, 1.0, 1.0))
        page = core.store.allocate().page_id
        assert core.access.access(page, 0, 64, False).served_tier is Tier.NVM
        core.slot.set(SPITFIRE_EAGER)
        assert core.access.access(page, 0, 64, False).served_tier is Tier.DRAM
