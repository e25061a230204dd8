"""The flat top-tier hit against the route it replaced.

``AccessPath.access`` serves a hit on a volatile top node holding a
full page where it finds it, and ``TierNode.read``/``write`` issue a
transfer's first attempt themselves.  Neither may move a simulated
number, so this file holds them to the old route:

* a faulting top tier charges, counts and gives up exactly as
  ``read_with_retry`` under an op's CPU batch did,
* every configuration that must *not* take the flat route — partial
  layouts, a persistent top, a memory-mode top — and the one that does
  reproduce, on a seeded 5,000-op stream, the ``BufferStats``, resource
  usage and device counters recorded at the commit before the change.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.core.buffer_manager import BufferManager, BufferManagerConfig
from repro.core.devio import MAX_ATTEMPTS, read_with_retry, write_with_retry
from repro.core.policy import (
    DRAM_SSD_POLICY,
    NVM_SSD_POLICY,
    SPITFIRE_EAGER,
    SPITFIRE_LAZY,
)
from repro.faults.injector import inject_faults
from repro.faults.plan import DeviceGaveUpError, FaultPlan, FaultSchedule
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale, Tier
from repro.workloads.ycsb import COLUMN_SIZE, TUPLE_SIZE

SCALE = SimulationScale(pages_per_gb=8)


# ----------------------------------------------------------------------
# (a) a faulting top tier
# ----------------------------------------------------------------------
def faulty_dram_hierarchy(**schedule):
    hierarchy = StorageHierarchy(HierarchyShape(2.0, 8.0, 100.0), SCALE)
    handle = inject_faults(
        hierarchy, FaultPlan(schedules={"dram": FaultSchedule(**schedule)}))
    return hierarchy, handle


def accounting(hierarchy, handle):
    cost = hierarchy.cost
    return {
        "total_fp": cost.total_fp,
        "usage": {key: (usage.busy_fp, usage.operations, usage.bytes_moved)
                  for key, usage in cost.snapshot().items()},
        "retries": handle.retries(),
        "faults": handle.faults_injected(),
    }


def old_route(hierarchy, is_write: bool, nbytes: int) -> None:
    """What a top-tier hit charged before: the lookup, then the retry
    wrapper around the device call, inside the op's CPU batch."""
    device = hierarchy.device(Tier.DRAM)
    hierarchy.cost.begin_cpu_batch()
    try:
        hierarchy.charge_cpu(hierarchy.cpu_costs.lookup_ns)
        if is_write:
            write_with_retry(device, nbytes)
        else:
            read_with_retry(device, nbytes)
    finally:
        hierarchy.cost.end_cpu_batch()


def flat_route(hierarchy, is_write: bool, nbytes: int) -> None:
    bm = BufferManager(hierarchy, SPITFIRE_LAZY)
    page = bm.allocate_page()
    assert bm.prime_page(Tier.DRAM, page)
    result = (bm.write if is_write else bm.read)(page, 0, nbytes)
    assert result.hit and result.served_tier is Tier.DRAM


@pytest.mark.parametrize("is_write", [False, True], ids=["read", "write"])
@pytest.mark.parametrize("failures", [1, MAX_ATTEMPTS - 1])
def test_faulting_top_tier_charges_like_the_retry_wrapper(is_write, failures):
    nbytes = COLUMN_SIZE if is_write else TUPLE_SIZE
    errors = {("write_errors" if is_write else "read_errors"):
              frozenset(range(failures))}
    expected_h, expected_handle = faulty_dram_hierarchy(**errors)
    old_route(expected_h, is_write, nbytes)
    actual_h, actual_handle = faulty_dram_hierarchy(**errors)
    flat_route(actual_h, is_write, nbytes)
    expected = accounting(expected_h, expected_handle)
    assert expected["retries"] == failures
    assert accounting(actual_h, actual_handle) == expected


@pytest.mark.parametrize("is_write", [False, True], ids=["read", "write"])
def test_faulting_top_tier_gives_up_like_the_retry_wrapper(is_write):
    nbytes = COLUMN_SIZE if is_write else TUPLE_SIZE
    errors = {("write_errors" if is_write else "read_errors"):
              frozenset(range(MAX_ATTEMPTS))}
    expected_h, expected_handle = faulty_dram_hierarchy(**errors)
    with pytest.raises(DeviceGaveUpError) as expected_error:
        old_route(expected_h, is_write, nbytes)
    actual_h, actual_handle = faulty_dram_hierarchy(**errors)
    with pytest.raises(DeviceGaveUpError) as actual_error:
        flat_route(actual_h, is_write, nbytes)
    assert actual_error.value.args == expected_error.value.args
    assert actual_error.value.attempts == MAX_ATTEMPTS
    assert actual_error.value.__cause__.op_index == MAX_ATTEMPTS - 1
    assert accounting(actual_h, actual_handle) \
        == accounting(expected_h, expected_handle)


# ----------------------------------------------------------------------
# (b) seeded streams against the parent commit's numbers
# ----------------------------------------------------------------------
def _hierarchy(dram_gb, nvm_gb, memory_mode=False):
    return StorageHierarchy(HierarchyShape(dram_gb, nvm_gb, 100.0), SCALE,
                            memory_mode=memory_mode)


#: name -> (buffer manager factory, digest at the parent commit).
CONFIGURATIONS = {
    # The flat route itself: volatile top, full pages.
    "dram_nvm_lazy": (
        lambda: BufferManager(_hierarchy(2.0, 8.0), SPITFIRE_LAZY),
        "4b0b73fabc062dbf78710e48a63610c2c43712492f3d43aff82b1a07721ce622"),
    "dram_only": (
        lambda: BufferManager(_hierarchy(2.0, 0.0), DRAM_SSD_POLICY),
        "30b6552ac33e4103dec0333f3ba07b35ff76e1b3919545987e6872ffd4885e2c"),
    # Partial layouts on the top tier keep the serve_resident_access route.
    "cacheline_top": (
        lambda: BufferManager(_hierarchy(2.0, 8.0), SPITFIRE_EAGER,
                              BufferManagerConfig(fine_grained=True)),
        "0b754196dd3905343123dff652f4afb2a5934a2aabad99bb42a296c4f52f8bc6"),
    "mini_page_top": (
        lambda: BufferManager(
            _hierarchy(2.0, 8.0), SPITFIRE_EAGER,
            BufferManagerConfig(fine_grained=True, mini_pages=True)),
        "4e5cb59aa7c95c08b16e2a66b17decd8d36577b51cd2d835e8ff79d6b449986d"),
    # A persistent top is served in place (serve_direct + barrier).
    "nvm_only": (
        lambda: BufferManager(_hierarchy(0.0, 8.0), NVM_SSD_POLICY),
        "2217d9c255df0f3f20cdd81eebaea422f2dd32957cb30d7187b90c5418996e20"),
    # A memory-mode top is told which page each transfer touches.
    "memory_mode_top": (
        lambda: BufferManager(_hierarchy(1.0, 4.0, memory_mode=True),
                              DRAM_SSD_POLICY),
        "f31452a492738fae2cfce2fc44a910f0cd7989ee8a129085ea6bf0fbbbd5a19d"),
}

STREAM_OPS = 5_000
STREAM_PAGES = 160


def run_stream(bm: BufferManager, seed: int = 11) -> None:
    """A seeded, skewed 5,000-op read/update stream with one checkpoint
    flush every 1,000 ops (hits, misses, evictions and flushes all run)."""
    rng = random.Random(seed)
    bm.allocate_pages(range(STREAM_PAGES))
    for index in range(STREAM_OPS):
        page = min(int(rng.paretovariate(1.1)) - 1, STREAM_PAGES - 1)
        slot = rng.randrange(16)
        if rng.random() < 0.3:
            bm.write(page, slot * TUPLE_SIZE + 4 + rng.randrange(10) * 100,
                     COLUMN_SIZE)
        else:
            bm.read(page, slot * TUPLE_SIZE + 4, TUPLE_SIZE)
        if (index + 1) % 1_000 == 0:
            bm.flush_dirty_dram()


def simulated_state(bm: BufferManager) -> dict:
    """Everything simulated the run leaves behind, JSON-able."""
    cost = bm.hierarchy.cost
    stats = bm.stats
    # Per-tier hits and the up/down migration tallies, as a bus
    # subscriber kept them at the parent commit: they are the paper's
    # DRAM/NVM counters.
    hits = {Tier.DRAM: stats.dram_hits, Tier.NVM: stats.nvm_hits}
    return {
        "stats": stats.as_dict(),
        "resource_usage": {key: [usage.busy_fp, usage.operations,
                                 usage.bytes_moved]
                           for key, usage in cost.snapshot().items()},
        "total_fp": cost.total_fp,
        "makespan_ns": repr(cost.makespan_ns(1)),
        "counters": {tier.value: vars(device.snapshot_counters())
                     for tier, device in bm.hierarchy.devices.items()},
        "hits_by_tier": {tier.value: count for tier, count in hits.items()
                         if count},
        "migrations": [stats.nvm_to_dram, stats.dram_to_nvm],
        "resident": {tier.value: sorted(bm.resident_pages(tier))
                     for tier in bm.chain.tiers},
    }


def state_digest(bm: BufferManager) -> str:
    payload = json.dumps(simulated_state(bm), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_seeded_stream_matches_parent_commit(name):
    factory, parent_digest = CONFIGURATIONS[name]
    bm = factory()
    run_stream(bm)
    assert bm.stats.reads + bm.stats.writes == STREAM_OPS
    assert state_digest(bm) == parent_digest, simulated_state(bm)["stats"]
