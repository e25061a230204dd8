"""The core's own ``BufferStats`` against a projection of its event stream.

The buffer manager counts the paper's statistics where each action
happens, beside the event it publishes.  Before that, a bus subscriber
derived the same counters from the events alone;
:func:`reference_projection` is that subscriber's mapping, kept here as
the oracle.  Every shape below runs a seeded stream with a
record-everything subscriber on the bus from construction and asserts
that all nineteen counters equal the projection of what it recorded —
so a counting site that is dropped, doubled or misattributed fails here
on the shape that exercises it.
"""

from __future__ import annotations

import random
from dataclasses import fields

import pytest
from conftest import EventRecorder, RecordedEvent

from repro.core.buffer_manager import BufferManager, BufferManagerConfig
from repro.core.events import EventType
from repro.core.hymem import make_hymem
from repro.core.policy import (
    DRAM_SSD_POLICY,
    NVM_SSD_POLICY,
    SPITFIRE_EAGER,
    SPITFIRE_LAZY,
)
from repro.core.stats import BufferStats
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale, Tier
from repro.workloads.ycsb import COLUMN_SIZE, TUPLE_SIZE

SCALE = SimulationScale(pages_per_gb=8)

DRAM, NVM = Tier.DRAM, Tier.NVM


def reference_projection(events) -> BufferStats:
    """``BufferStats`` as the paper's counters project an event stream."""
    stats = BufferStats()
    for etype, _page_id, tier, src, _dirty in events:
        if etype is EventType.OP_READ:
            stats.reads += 1
        elif etype is EventType.OP_WRITE:
            stats.writes += 1
        elif etype is EventType.HIT:
            if tier is DRAM:
                stats.dram_hits += 1
            elif tier is NVM:
                stats.nvm_hits += 1
        elif etype is EventType.MISS:
            stats.ssd_fetches += 1
        elif etype is EventType.INSTALL:
            if tier is DRAM:
                stats.ssd_to_dram += 1
            elif tier is NVM:
                stats.ssd_to_nvm += 1
        elif etype is EventType.MIGRATE_UP:
            if src is NVM and tier is DRAM:
                stats.nvm_to_dram += 1
        elif etype is EventType.MIGRATE_DOWN:
            if src is DRAM and tier is NVM:
                stats.dram_to_nvm += 1
        elif etype is EventType.EVICT:
            if tier is DRAM:
                stats.dram_evictions += 1
            elif tier is NVM:
                stats.nvm_evictions += 1
        elif etype is EventType.WRITE_BACK:
            if src is DRAM:
                stats.dram_to_ssd += 1
            elif src is NVM:
                stats.nvm_to_ssd += 1
        elif etype is EventType.CLEAN_DROP:
            stats.clean_drops += 1
        elif etype is EventType.FLUSH:
            stats.dirty_page_flushes += 1
        elif etype is EventType.DIRECT_READ:
            if tier is NVM:
                stats.nvm_direct_reads += 1
        elif etype is EventType.DIRECT_WRITE:
            if tier is NVM:
                stats.nvm_direct_writes += 1
        elif etype is EventType.FINE_GRAINED_LOAD:
            stats.fine_grained_loads += 1
        elif etype is EventType.MINI_PAGE_PROMOTION:
            stats.mini_page_promotions += 1
    return stats


class StreamRecorder(EventRecorder):
    """Records every event, expanding batch-path run summaries into the
    per-op OP_READ → HIT [→ DIRECT_READ] sequences they stand for."""

    def apply_op_batch(self, summary) -> None:
        tier = summary.tier
        for page_id in summary.page_ids:
            self.events.append(
                RecordedEvent(EventType.OP_READ, page_id, None, None, False))
            self.events.append(
                RecordedEvent(EventType.HIT, page_id, tier, None, False))
            if summary.direct:
                self.events.append(RecordedEvent(
                    EventType.DIRECT_READ, page_id, tier, None, False))


def _hierarchy(dram_gb, nvm_gb, memory_mode=False):
    return StorageHierarchy(HierarchyShape(dram_gb, nvm_gb, 100.0),
                            SCALE, memory_mode=memory_mode)


def run_stream(bm: BufferManager, ops: int = 3_000, pages: int = 160,
               seed: int = 11) -> None:
    """A seeded, skewed read/update stream over scattered offsets and
    sizes, with a checkpoint flush every 500 ops."""
    rng = random.Random(seed)
    bm.allocate_pages(range(pages))
    for index in range(ops):
        page = min(int(rng.paretovariate(1.1)) - 1, pages - 1)
        offset = rng.randrange(16) * TUPLE_SIZE + 4
        if rng.random() < 0.3:
            bm.write(page, offset + rng.randrange(10) * 100, COLUMN_SIZE)
        else:
            bm.read(page, offset, rng.choice((TUPLE_SIZE, 64, 2048)))
        if (index + 1) % 500 == 0:
            bm.flush_dirty_dram()


def run_resident_batches(bm: BufferManager, tier: Tier) -> None:
    """Reads of pages primed on ``tier``, 1,024 per ``read_batch``."""
    pages = list(range(bm.pools[tier].max_entries))
    bm.allocate_pages(pages)
    for page in pages:
        assert bm.prime_page(tier, page)
    rng = random.Random(5)
    for _ in range(3):
        ids = [pages[rng.randrange(len(pages))] for _ in range(1_024)]
        bm.read_batch(ids, [4] * len(ids), TUPLE_SIZE)
    assert bm.batch_path.fast_runs > 0


#: Fields every seeded stream produces, and those of a two-tier
#: DRAM+NVM chain.
_STREAM = {"reads", "writes", "ssd_fetches", "clean_drops"}
_DRAM_NVM = _STREAM | {"dram_hits", "nvm_hits", "dram_to_nvm",
                       "dram_evictions", "dirty_page_flushes"}
_DRAM_SSD = _STREAM | {"dram_hits", "ssd_to_dram", "dram_to_ssd",
                       "dram_evictions", "dirty_page_flushes"}
_EAGER = _DRAM_NVM | {"ssd_to_nvm", "nvm_to_dram", "nvm_to_ssd",
                      "nvm_evictions"}
_DIRECT = {"nvm_direct_reads", "nvm_direct_writes"}

#: name -> (buffer manager factory, driver, fields that must be non-zero).
SHAPES = {
    "dram_ssd": (
        lambda: BufferManager(_hierarchy(2.0, 0.0), DRAM_SSD_POLICY),
        run_stream, _DRAM_SSD),
    "nvm_ssd": (
        lambda: BufferManager(_hierarchy(0.0, 8.0), NVM_SSD_POLICY),
        run_stream,
        _STREAM | _DIRECT | {"nvm_hits", "ssd_to_nvm", "nvm_to_ssd",
                             "nvm_evictions"}),
    "dram_nvm_lazy": (
        lambda: BufferManager(_hierarchy(2.0, 8.0), SPITFIRE_LAZY),
        run_stream, _EAGER | _DIRECT | {"ssd_to_dram"}),
    "dram_nvm_eager": (
        lambda: BufferManager(_hierarchy(2.0, 8.0), SPITFIRE_EAGER),
        run_stream, _EAGER),
    "hymem_admission_queue": (
        lambda: make_hymem(_hierarchy(2.0, 8.0), fine_grained=False),
        run_stream,
        _DRAM_NVM | {"ssd_to_dram", "nvm_to_dram", "dram_to_ssd"}),
    "fine_grained": (
        lambda: BufferManager(_hierarchy(2.0, 8.0), SPITFIRE_EAGER,
                              BufferManagerConfig(fine_grained=True)),
        run_stream, _EAGER | {"fine_grained_loads"}),
    "fine_grained_mini_pages": (
        lambda: BufferManager(
            _hierarchy(2.0, 8.0), SPITFIRE_EAGER,
            BufferManagerConfig(fine_grained=True, mini_pages=True)),
        run_stream, _EAGER | {"fine_grained_loads", "mini_page_promotions"}),
    "memory_mode_top": (
        lambda: BufferManager(_hierarchy(1.0, 4.0, memory_mode=True),
                              DRAM_SSD_POLICY),
        run_stream, _DRAM_SSD),
    "dram_resident_batch": (
        lambda: BufferManager(_hierarchy(2.0, 8.0), SPITFIRE_LAZY),
        lambda bm: run_resident_batches(bm, DRAM), {"reads", "dram_hits"}),
    "nvm_resident_batch": (
        lambda: BufferManager(_hierarchy(0.0, 8.0), NVM_SSD_POLICY),
        lambda bm: run_resident_batches(bm, NVM),
        {"reads", "nvm_hits", "nvm_direct_reads"}),
}


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_stats_equal_the_projection_of_the_event_stream(name):
    factory, drive, produced = SHAPES[name]
    bm = factory()
    recorder = bm.events.subscribe(StreamRecorder())
    drive(bm)
    counted = bm.stats.as_dict()
    assert counted == reference_projection(recorder.events).as_dict()
    assert len(counted) == len(fields(BufferStats)) == 19
    assert {field for field, count in counted.items() if count} >= produced
