"""The event stream, pinned to what the bus delivered before it spoke
one protocol.

Every counter, histogram and trace in the repo is a projection of
``bm.events``; making positional ``apply_event`` delivery the bus's only
protocol must not add, drop, reorder or alter one event.  Each scenario
below runs a seeded workload through the harness with a
record-everything subscriber on the bus from before priming and hashes
the ``(type, page_id, tier, src, dirty)`` sequence it was offered.

The digests were computed at the parent commit (``21b87ee``) with a
plain ``list.append`` subscriber — the object format that commit still
had — converted to the same five-field tuples; a change that moves one
of them changed what subscribers see, not how they are called.
"""

from __future__ import annotations

import hashlib

import pytest
from conftest import EventRecorder

from repro.bench.harness import RunConfig, WorkloadRunner
from repro.core.buffer_manager import BufferManager
from repro.core.events import EventType
from repro.core.policy import SPITFIRE_LAZY
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.ycsb import YCSB_BA, YcsbWorkload

SCALE = SimulationScale(pages_per_gb=8)


def three_tier_lazy() -> BufferManager:
    """16 DRAM + 64 NVM frames over SSD, the paper's lazy policy."""
    hierarchy = StorageHierarchy(HierarchyShape(2.0, 8.0, 100.0), SCALE)
    return BufferManager(hierarchy, SPITFIRE_LAZY)


def run_ycsb(bm: BufferManager) -> None:
    """2,000 seeded YCSB-BA ops (500 warm-up + 1,500 measured)."""
    runner = WorkloadRunner(bm, RunConfig(
        warmup_ops=500, measure_ops=1_500, checkpoint_interval_ops=300))
    runner.measure_ycsb(YcsbWorkload(4_000, mix=YCSB_BA, seed=3))


def run_tpcc_wal(bm: BufferManager) -> None:
    """2,000 seeded TPC-C page accesses with the WAL and checkpoints on."""
    runner = WorkloadRunner(bm, RunConfig(
        warmup_ops=500, measure_ops=1_500, with_wal=True,
        checkpoint_interval_ops=300))
    runner.measure_tpcc(TpccWorkload(5.0, SCALE, seed=1))


#: name -> (workload driver, events expected, digest at the parent commit).
SCENARIOS = {
    "ycsb_ba_three_tier_lazy": (
        run_ycsb, 11_261,
        "ddce01d215d81a4f92e0a3a4a374fc2c7290d794340e3a5070bfacff1d23e9e2"),
    "tpcc_wal_three_tier_lazy": (
        run_tpcc_wal, 5_228,
        "51162c3a5fcdd60188894ed348dc21a09e0729b9d2c785226eb62755d578eada"),
}


def stream_digest(events) -> str:
    digest = hashlib.sha256()
    for etype, page_id, tier, src, dirty in events:
        digest.update(
            f"{etype.value},{page_id},{tier.name if tier else '-'},"
            f"{src.name if src else '-'},{int(dirty)}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_event_stream_matches_parent_commit(name):
    drive, expected_events, parent_digest = SCENARIOS[name]
    bm = three_tier_lazy()
    recorder = EventRecorder()
    bm.events.subscribe(recorder)
    drive(bm)
    events = recorder.events
    # The stream is not trivially short or one-sided: every kind of
    # traffic the chain produces is in it.
    kinds = {event.type for event in events}
    assert {EventType.OP_READ, EventType.OP_WRITE, EventType.HIT,
            EventType.MISS, EventType.INSTALL, EventType.MIGRATE_DOWN,
            EventType.EVICT, EventType.FLUSH} <= kinds
    assert len(events) == expected_events
    assert stream_digest(events) == parent_digest
