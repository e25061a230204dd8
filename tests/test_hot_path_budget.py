"""Frame budgets of what every workload is mostly made of: a DRAM hit,
an SSD miss with its eviction, the log records of a write — and the
mapping-table entry every page touched for the first time builds.

Spitfire's premise (§3, §5.1) is that a buffered access is nearly free
and only migrations cost; §5.2's, that with an NVM log buffer a commit
is one small NVM write and a barrier.  In an interpreter the fixed cost
of an op is the number of Python frames under it, so these tests count
them — ``sys.setprofile`` ``"call"`` events, which are exact and repeat
to the unit — and hold them to a budget.  A change that re-grows the
tower under ``BufferManager.read``/``write`` or ``LogManager.append``
fails here, deterministically, long before a wall-clock benchmark
notices.  A new entry is also held to the bytes it keeps alive
(``tracemalloc``, exact for a fixed interpreter).
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import pytest
from conftest import make_bm

from repro.bench.harness import RunConfig, WorkloadRunner
from repro.core.mapping_table import MappingTable
from repro.core.policy import DRAM_SSD_POLICY, SPITFIRE_LAZY
from repro.hardware.specs import Tier
from repro.workloads.ycsb import COLUMN_SIZE, TUPLE_SIZE, YCSB_BA, YcsbWorkload

#: Python-level calls one DRAM hit makes, ``read``/``write`` included
#: (40 / 39 before the hit was served where it is found; 19 while the
#: lookup went through a per-pool page dict; 18 while a reference bit
#: took a lock, a device charged transfer and stall in two calls and
#: the result was built by the named tuple's ``__new__``; 14 while a bus
#: subscriber projected the OP_READ and HIT events onto ``BufferStats``;
#: 12 now).
BUDGET = 13
#: ... and one SSD miss on a full DRAM-SSD chain: the fetch, one CLOCK
#: sweep, the clean victim dropped, the install (49.1 measured — the
#: sweep length varies by a frame — 88.6 with the per-pool page dicts;
#: 83.6 with a locked bitmap, two charges per device access, reservations
#: by tier, ``page_id`` a property and ``Page.clone`` through
#: ``__init__`` + ``copy_from``; 54.1 while a bus subscriber projected
#: the op's five events onto ``BufferStats``).
MISS_BUDGET = 53
#: ... and the WAL bookkeeping of one write on a DRAM+NVM hierarchy —
#: the logging CPU charge, an UPDATE and its COMMIT, each persisted by
#: one NVM write and one barrier — ``_charge_update_wal`` included (50
#: before a log resolved its device, sized, checksummed and built a
#: record once each; 24 when this budget was set).
WAL_BUDGET = 30
#: ... and one new mapping-table entry, ``get_or_create`` of a page not
#: seen before: Python-level calls and bytes it keeps alive (13 calls
#: and 2,020 B while each entry built four ``threading.RLock`` wrappers
#: through a generator and a ``threading.Condition`` of its own; 2 calls
#: and ~660 B with four C-constructed latches, four copy slots and one
#: shared condition; ~545 B with three of each, one per tier of
#: DRAM-NVM-SSD).
ENTRY_CALL_BUDGET = 2
ENTRY_BYTE_BUDGET = 600
OPS = 1_000


def python_calls(fn) -> int:
    """Python-level function calls made while ``fn`` runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A collection inside ``fn`` would run finalizers left over from
    # earlier tests — their calls are not ``fn``'s.
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


@pytest.fixture
def primed():
    """A DRAM+NVM manager with 64 pages primed into DRAM."""
    bm = make_bm(dram_gb=2.0, nvm_gb=4.0, policy=SPITFIRE_LAZY,
                 pages_per_gb=64)
    pages = list(range(64))
    bm.allocate_pages(pages)
    for page in pages:
        assert bm.prime_page(Tier.DRAM, page)
    return bm, pages


@pytest.mark.parametrize("is_write", [False, True], ids=["read", "write"])
def test_dram_hit_stays_within_frame_budget(primed, is_write):
    bm, pages = primed
    access = bm.write if is_write else bm.read
    nbytes = COLUMN_SIZE if is_write else TUPLE_SIZE
    access(pages[0], 0, nbytes)  # the charge plan of this shape exists

    def run():
        for index in range(OPS):
            access(pages[index % len(pages)], 4, nbytes)

    calls = python_calls(run) - 1  # ``run`` itself
    stats = bm.stats
    assert stats.dram_hits == OPS + 1 and stats.ssd_fetches == 0
    assert calls / OPS <= BUDGET, (
        f"{calls / OPS:.1f} Python-level calls per DRAM hit, budget {BUDGET}"
    )


def test_bare_manager_bus_is_empty():
    """The core counts its own statistics: nothing subscribes to a bare
    manager's bus, before a measured run or after it and a reset."""
    bm = make_bm(dram_gb=2.0, nvm_gb=4.0, policy=SPITFIRE_LAZY,
                 pages_per_gb=16)
    assert bm.events.num_subscribers == 0
    runner = WorkloadRunner(bm, RunConfig(warmup_ops=200, measure_ops=400,
                                          checkpoint_interval_ops=100))
    result = runner.measure_ycsb(YcsbWorkload(2_000, mix=YCSB_BA, seed=3))
    assert result.stats.reads + result.stats.writes == 400
    bm.reset_stats()
    assert bm.events.num_subscribers == 0
    assert bm.stats.operations == 0


def test_ssd_miss_with_one_eviction_stays_within_frame_budget():
    bm = make_bm(dram_gb=2.0, nvm_gb=0.0, policy=DRAM_SSD_POLICY,
                 pages_per_gb=32)
    frames = bm.pools[Tier.DRAM].max_entries
    pages = list(range(4 * frames))
    bm.allocate_pages(pages)
    for page in pages[:frames]:
        assert bm.prime_page(Tier.DRAM, page)
    for page in pages[frames:2 * frames]:  # past the first full sweep
        bm.read(page, 4, TUPLE_SIZE)
    bm.reset_stats()

    def run():
        for index in range(OPS):
            bm.read(pages[(2 * frames + index) % len(pages)], 4, TUPLE_SIZE)

    calls = python_calls(run) - 1  # ``run`` itself
    stats = bm.stats
    assert stats.ssd_fetches == OPS and stats.dram_evictions == OPS
    assert calls / OPS <= MISS_BUDGET, (
        f"{calls / OPS:.1f} Python-level calls per SSD miss, "
        f"budget {MISS_BUDGET}"
    )


def test_logged_write_stays_within_frame_budget():
    bm = make_bm(dram_gb=2.0, nvm_gb=4.0, policy=SPITFIRE_LAZY,
                 pages_per_gb=64)
    # No checkpointer: a checkpoint is a flush loop, not a logged write.
    runner = WorkloadRunner(bm, RunConfig(checkpoint_interval_ops=None))
    runner._charge_update_wal(0)  # the charge plans of both sizes exist

    def run():
        for index in range(OPS):
            runner._charge_update_wal(index % 64)

    calls = python_calls(run) - 1  # ``run`` itself
    log = runner.log
    assert log.uses_nvm and log.stats.records_appended == 2 * (OPS + 1)
    assert calls / OPS <= WAL_BUDGET, (
        f"{calls / OPS:.1f} Python-level calls per logged write, "
        f"budget {WAL_BUDGET}"
    )


def test_new_mapping_entry_stays_within_call_and_byte_budget():
    table = MappingTable()
    table.get_or_create(0)  # the table's first insert is not an entry's

    def run():
        for page in range(1, OPS + 1):
            table.get_or_create(page)

    calls = python_calls(run) - 1  # ``run`` itself
    assert len(table) == OPS + 1
    assert calls / OPS <= ENTRY_CALL_BUDGET, (
        f"{calls / OPS:.1f} Python-level calls per new entry, "
        f"budget {ENTRY_CALL_BUDGET}"
    )

    table = MappingTable()
    pages = range(OPS)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for page in pages:
            table.get_or_create(page)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(table) == OPS
    assert retained / OPS <= ENTRY_BYTE_BUDGET, (
        f"{retained / OPS:.0f} B retained per new entry, "
        f"budget {ENTRY_BYTE_BUDGET}"
    )
