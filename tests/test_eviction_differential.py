"""The eviction cascade, pinned to what it did as a recursion.

A miss that finds its pool full picks a victim and decides its fate:
drop it, write it back, admit it one edge down (a fresh copy, or an
overwrite of a copy already there), and make room on the next level the
same way.  Each stream below drives 5,000 seeded reads and writes
straight through ``BufferManager.read``/``write`` on a shape chosen to
reach one family of those branches, with a record-everything subscriber
on the bus, and hashes what the run leaves behind: ``BufferStats``, the
accumulator's per-resource usage in slot order, every device's
counters (and a memory-mode device's cache statistics), the RNG state,
the WAL guard's calls, the store's durable pages and the event stream.

The digests were computed with the cascade written as
``evict_from_node`` → ``admit_eviction_to_lower`` →
``insert_with_space`` → ``ensure_space`` → ``evict_from_node`` …; a
change that moves one of them changed a charge, an event, a draw or a
page's content, not only how the cascade is spelled.

:class:`BranchProbe` classifies every eviction from what the bus and the
manager show at its ``EVICT`` event and at the event that settles its
fate, so the non-vacuity test below holds whatever shape the eviction
code takes.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import astuple
from functools import lru_cache

import pytest
from conftest import EventRecorder

from repro.core.buffer_manager import BufferManager, BufferManagerConfig
from repro.core.events import EventType
from repro.core.policy import (
    DRAM_SSD_POLICY,
    HYMEM_POLICY,
    NVM_SSD_POLICY,
    SPITFIRE_EAGER,
    SPITFIRE_LAZY,
    MigrationPolicy,
)
from repro.core.tenancy import QuotaMode, TenancyConfig
from repro.faults.injector import FaultyDevice, inject_faults
from repro.faults.plan import FaultPlan
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.memory_mode import MemoryModeDevice
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale, Tier
from repro.pages.cacheline_page import CacheLinePage
from repro.pages.granularity import LoadingUnit
from repro.pages.mini_page import MiniPage
from repro.pages.page import Page

OPS = 5_000
PAGES = 64
#: A checkpoint flush every this many ops, in the streams that take one.
FLUSH_EVERY = 500
#: 4 frames per GB: the shapes below are 8-frame DRAM and 16-frame NVM
#: pools under a 64-page database.
SCALE = SimulationScale(pages_per_gb=4)
HALF = MigrationPolicy(0.5, 0.5, 0.5, 0.5, name="half")


class BranchProbe:
    """Classifies each eviction by the branch of the cascade it took."""

    def __init__(self, bm: BufferManager, faulty: dict | None = None) -> None:
        self.bm = bm
        self.faulty = faulty or {}
        self.branches: set[str] = set()
        #: page -> (tier, dirty, lower copy existed, victim-device retries)
        self._pending: dict = {}

    def _retries(self, tier: Tier) -> int:
        device = self.faulty.get(tier)
        return device.retries if device is not None else 0

    def apply_event(self, etype, page_id, tier, src, dirty) -> None:
        bm = self.bm
        if etype is EventType.EVICT:
            shared = bm.table.get(page_id)
            node = bm.chain.node(tier)
            lower = bm.chain.lower_of(node)
            content = shared.copy_on(tier).content
            partial = isinstance(content, (CacheLinePage, MiniPage))
            if tier is Tier.NVM:
                above = shared.copy_on(Tier.DRAM)
                if above is not None and not isinstance(above.content, Page):
                    self.branches.add("partial_above_made_self_contained")
            if len(node.pool) < node.pool.max_entries \
                    and bm.tenancy is not None:
                self.branches.add("hard_quota_own_victim")
            tenancy = bm.tenancy
            if tenancy is not None and tenancy.enforcing \
                    and tenancy.config.quota_mode is QuotaMode.SOFT:
                tenant = tenancy.tenant_of(page_id)
                usage = tenancy.usage_by_tenant(node.pool.descriptors())
                quota = tenancy.quota_frames(tier, node.pool.max_entries,
                                             tenant)
                if usage.get(tenant, 0) > quota:
                    self.branches.add("soft_quota_over_share_victim")
            if partial and shared.copy_on(Tier.NVM) is not None:
                self.branches.add("partial_lines_written_back")
                return
            if partial:
                self.branches.add("partial_promoted_to_full")
            lower_copy = (lower is not None
                          and shared.copy_on(lower.tier) is not None)
            self._pending[page_id] = (tier, dirty, lower_copy,
                                      self._retries(tier))
            return
        if etype not in (EventType.MIGRATE_DOWN, EventType.WRITE_BACK,
                         EventType.CLEAN_DROP):
            return
        pending = self._pending.get(page_id)
        if pending is None:
            return
        victim_tier, victim_dirty, lower_copy, retries = pending
        if etype is EventType.MIGRATE_DOWN:
            if src is not victim_tier:
                return  # a checkpoint flush's, not this eviction's
            fate = ("overwrite_lower_copy" if lower_copy
                    else f"admit_{'dirty' if victim_dirty else 'clean'}")
        elif etype is EventType.WRITE_BACK:
            fate = "write_back"
            lower = self.bm.chain.lower_of(self.bm.chain.node(victim_tier))
            if lower is not None and \
                    self.bm.table.get(page_id).copy_on(lower.tier) is not None:
                fate = "write_back_stale_lower_invalidated"
            if isinstance(self.bm.chain.node(victim_tier).device,
                          MemoryModeDevice):
                self.branches.add("memory_mode_write_back")
        else:
            if tier is not victim_tier:
                return
            fate = "drop_clean"
        del self._pending[page_id]
        self.branches.add(fate)
        if self._retries(victim_tier) > retries:
            self.branches.add("victim_read_retried")
        if self.bm.admission_queues and victim_tier is Tier.DRAM:
            self.branches.add(f"admission_queue_{fate}")


def hierarchy(dram_gb: float, nvm_gb: float, *,
              memory_mode: bool = False) -> StorageHierarchy:
    return StorageHierarchy(HierarchyShape(dram_gb, nvm_gb, 100.0), SCALE,
                            memory_mode=memory_mode)


#: name -> (dram GB, NVM GB, policy, config, write fraction, options).
#: Options: ``flush`` takes a checkpoint every FLUSH_EVERY ops, ``faults``
#: injects transient read errors on every device, ``memory_mode`` puts a
#: DRAM cache over NVM in the DRAM slot.  The ``tenants_*`` configs
#: split the pages between two tenants by page range.
STREAMS = {
    "three_tier_lazy": (2.0, 4.0, SPITFIRE_LAZY, None, 0.5, {"flush"}),
    "three_tier_eager": (2.0, 4.0, SPITFIRE_EAGER, None, 0.5, set()),
    "three_tier_half": (2.0, 4.0, HALF, None, 0.5, {"flush"}),
    "three_tier_hymem": (2.0, 4.0, HYMEM_POLICY, None, 0.3, set()),
    "dram_ssd": (2.0, 0.0, DRAM_SSD_POLICY, None, 0.3, {"flush"}),
    "nvm_ssd": (0.0, 4.0, NVM_SSD_POLICY, None, 0.3, set()),
    "tenants_soft": (
        2.0, 4.0, HALF, BufferManagerConfig(tenancy=TenancyConfig(
            num_tenants=2, page_stride=PAGES // 2,
            quota_mode=QuotaMode.SOFT, shares=(0.75, 0.25))),
        0.3, set()),
    "tenants_hard": (
        2.0, 4.0, HALF, BufferManagerConfig(tenancy=TenancyConfig(
            num_tenants=2, page_stride=PAGES // 2,
            quota_mode=QuotaMode.HARD, shares=(0.75, 0.25))),
        0.3, set()),
    "cacheline": (
        2.0, 4.0, SPITFIRE_EAGER, BufferManagerConfig(fine_grained=True),
        0.3, {"flush"}),
    "mini_pages": (
        1.0, 4.0, SPITFIRE_EAGER,
        BufferManagerConfig(fine_grained=True, mini_pages=True),
        0.3, {"flush"}),
    # Fig. 11's configuration: HyMem, cache-line pages without mini
    # pages, at both ends of the loading-unit sweep.
    "hymem_cacheline_64": (
        2.0, 4.0, HYMEM_POLICY,
        BufferManagerConfig(fine_grained=True, mini_pages=False,
                            loading_unit=LoadingUnit(64)),
        0.3, {"flush"}),
    "hymem_cacheline_512": (
        2.0, 4.0, HYMEM_POLICY,
        BufferManagerConfig(fine_grained=True, mini_pages=False,
                            loading_unit=LoadingUnit(512)),
        0.3, {"flush"}),
    "faulty_devices": (2.0, 4.0, HALF, None, 0.4, {"faults"}),
    "memory_mode": (2.0, 4.0, DRAM_SSD_POLICY, None, 0.4, {"memory_mode"}),
}

#: Digests of each stream's end state, computed before the cascade was
#: a loop (see the module docstring).
DIGESTS = {
    "three_tier_lazy":
        "edd1caa251b3784bd5b3d102b2922ab2b2b53bfe883f31ccd421f025fbfc8b41",
    "three_tier_eager":
        "211d45189f11eb32d681ce9ca1f629817857f1415ee2591e82ed0a2526b4f071",
    "three_tier_half":
        "9ba4810594a72e49044c96012582d350da58c3a35cc66cbb89692ecd4b221a82",
    "three_tier_hymem":
        "63bd8abe5b119e4dc1ec2ece3b6374c4db9d77c81b2d9858c1dd40594d2ed2de",
    "dram_ssd":
        "ce4e5c7f0acf9d26265d14faa6bcc867b1b334239bede5372fdcfa36b3ead341",
    "nvm_ssd":
        "3ef98c536107d131ce85979a8825f5ba484ff8cdb2910ae1c27a87872a44d3e8",
    "tenants_soft":
        "7178e136c48ea0c9cbc81647733478c7873b833eb15cb61433deca886b2c3055",
    "tenants_hard":
        "fcc8f50dea781108d061b5846d91d59a398a5568150a2b2fa776c17639f412b5",
    "cacheline":
        "3a8b396c98802375b3081ff65e072d6f374b9413f26915a588183a9c8f2e4986",
    "mini_pages":
        "2fa99a07d70fd15d424052fc0ec1730b29d6e6166375361ffbab06d712980049",
    # Computed while a partial layout was served through the
    # ``climb`` → ``serve`` → ``serve_resident_access`` tower and its
    # masks took a lock built per install.
    "hymem_cacheline_64":
        "e5e36500ad34430b7e58f8cb38fca9830004294d118cc9d645c0fc0223fc4292",
    "hymem_cacheline_512":
        "06209fcb779692733922ccd05195a6be0eab10e8531d6fc0d405779bf2da7640",
    "faulty_devices":
        "5c6475a8442dec2b7359486f4187db85ea7b2fc4a65734bc215ef4d783e12095",
    "memory_mode":
        "2fde69f440244a73590304dfa81bdd97e4797d43fdc07d1be88f9584bc90e4ec",
}


def _state_lines(bm: BufferManager, events, guard_calls):
    yield f"stats {astuple(bm.stats)}"
    for resource, usage in bm.hierarchy.cost.snapshot().items():
        yield (f"usage {resource} {usage.busy_fp} {usage.operations} "
               f"{usage.bytes_moved}")
    for tier, device in bm.hierarchy.devices.items():
        yield f"device {tier.name} {astuple(device.snapshot_counters())}"
        if isinstance(device, MemoryModeDevice):
            yield f"memory_mode {astuple(device.stats)}"
    yield f"rng {bm.rng.getstate()}"
    yield f"wal_guard {guard_calls}"
    for queue in bm.admission_queues:
        yield f"admission {queue.snapshot()}"
    for page_id in range(PAGES):
        page = bm.store.peek(page_id)
        yield f"page {page_id} {page.lsn} {sorted(page.records.items())}"
    for etype, page_id, tier, src, dirty in events:
        yield (f"{etype.value},{page_id},{tier.name if tier else '-'},"
               f"{src.name if src else '-'},{int(dirty)}")


@lru_cache(maxsize=None)
def run_stream(name: str) -> tuple[str, frozenset[str]]:
    """Drive stream ``name``; return its digest and the branches taken."""
    dram_gb, nvm_gb, policy, config, write_fraction, options = STREAMS[name]
    tiers = hierarchy(dram_gb, nvm_gb, memory_mode="memory_mode" in options)
    faulty = {}
    if "faults" in options:
        handle = inject_faults(tiers, FaultPlan.seeded(
            5, device_keys=("dram", "nvm", "ssd"), horizon_ops=100_000,
            read_error_rate=0.03))
        faulty = {tier: device for tier, device in handle.devices.items()
                  if isinstance(device, FaultyDevice)}
    bm = BufferManager(tiers, policy, config)
    guard_calls: list[int] = []
    bm.wal_guard = guard_calls.append
    recorder = bm.events.subscribe(EventRecorder())
    probe = bm.events.subscribe(BranchProbe(bm, faulty))
    bm.allocate_pages(range(PAGES))
    fine = bm.config.fine_grained
    page_size = bm.hierarchy.page_size
    rng = random.Random(f"eviction:{name}")
    lsn = 0
    for index in range(OPS):
        # Skewed toward low page ids, so hot pages climb and stay while
        # the tail keeps every pool evicting.
        page_id = int(PAGES * rng.random() ** 2)
        offset = rng.randrange(0, page_size - 256, 64) if fine else 0
        nbytes = 64 if rng.random() < 0.5 else 256
        if rng.random() < write_fraction:
            result = bm.write(page_id, offset, nbytes)
            # Stamp the write as the engine would, so a dirty victim
            # reaching durable media meets the WAL barrier.
            copy = bm.table.get(page_id).copy_on(result.served_tier) \
                if result.served_tier is not Tier.SSD else None
            if copy is not None and isinstance(copy.content, Page):
                lsn += 1
                copy.content.write_record(index % 7, b"%d" % index, lsn)
        else:
            bm.read(page_id, offset, nbytes)
        if "flush" in options and (index + 1) % FLUSH_EVERY == 0:
            bm.flush_dirty_dram()
    bm.events.unsubscribe(probe)
    bm.events.unsubscribe(recorder)
    digest = hashlib.sha256()
    for line in _state_lines(bm, recorder.events, guard_calls):
        digest.update(line.encode() + b"\n")
    return digest.hexdigest(), frozenset(probe.branches)


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_matches_the_recursive_cascade(name):
    digest, _ = run_stream(name)
    assert digest == DIGESTS[name]


#: Every branch of the cascade, and the stream expected to take it.
BRANCHES = {
    "admit_clean": "three_tier_lazy",
    "admit_dirty": "three_tier_half",
    "drop_clean": "three_tier_eager",
    "overwrite_lower_copy": "three_tier_eager",
    "write_back": "dram_ssd",
    "write_back_stale_lower_invalidated": "three_tier_half",
    "admission_queue_admit_clean": "three_tier_hymem",
    "admission_queue_drop_clean": "three_tier_hymem",
    "soft_quota_over_share_victim": "tenants_soft",
    "hard_quota_own_victim": "tenants_hard",
    "partial_lines_written_back": "cacheline",
    "partial_promoted_to_full": "mini_pages",
    "partial_above_made_self_contained": "cacheline",
    "victim_read_retried": "faulty_devices",
    "memory_mode_write_back": "memory_mode",
}


@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_every_branch_is_taken(branch):
    """The digests above are not vacuous: each branch of the cascade is
    taken by the stream written to reach it."""
    _, branches = run_stream(BRANCHES[branch])
    assert branch in branches, sorted(branches)
