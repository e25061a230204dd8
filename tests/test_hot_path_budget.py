"""Frame budgets of what every workload is mostly made of: a DRAM hit,
an SSD miss with its eviction (on DRAM-SSD, and on DRAM-NVM-SSD with
the eviction cascading to the bottom), the log records of a write, the
mapping-table entry every page touched for the first time builds, the
generation of the ops themselves — and, for HyMem's cache-line pages
(Fig. 11), an NVM hit installing a partial copy, a DRAM hit loading a
unit, and the average op of a quick Fig. 11 cell.

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

from repro.bench.experiments import fig11_granularity
from repro.bench.harness import RunConfig, WorkloadRunner
from repro.core.buffer_manager import BufferManagerConfig
from repro.core.mapping_table import MappingTable
from repro.core.policy import (
    DRAM_SSD_POLICY,
    HYMEM_POLICY,
    SPITFIRE_LAZY,
    MigrationPolicy,
)
from repro.hardware.specs import Tier
from repro.workloads.ycsb import (
    COLUMN_SIZE,
    TUPLE_SIZE,
    YCSB_BA,
    YCSB_RO,
    YcsbWorkload,
)

#: Python-level calls one DRAM hit makes, ``read``/``write`` included
#: (40 / 39 before the hit was served where it is found; 19 while the
#: lookup went through a per-pool page dict; 18 while a reference bit
#: took a lock, a device charged transfer and stall in two calls and
#: the result was built by the named tuple's ``__new__``; 14 while a bus
#: subscriber projected the OP_READ and HIT events onto ``BufferStats``;
#: 12 while the OP_READ and HIT publishes looped over empty tuples and a
#: device charged through ``CostAccumulator.charge_transfer_fp``; 9 while
#: each op opened and closed a per-thread CPU batch; 7 now).
BUDGET = 9
#: ... and one SSD miss on a full DRAM-SSD chain: the fetch, one CLOCK
#: sweep, the clean victim dropped, the install (a mean: the sweep
#: length varies by a frame; 88.6 with the per-pool page dicts;
#: 83.6 with a locked bitmap, two charges per device access, reservations
#: by tier, ``page_id`` a property and ``Page.clone`` through
#: ``__init__`` + ``copy_from``; 54.1 while a bus subscriber projected
#: the op's five events onto ``BufferStats``; 49.1 while the eviction was
#: a five-frame recursion, five publishes looped over empty tuples, a
#: top-tier miss was served through ``serve_resident_access``, and each
#: level asked its pool for room again after evicting; 29.1 while each
#: op opened and closed a per-thread CPU batch; 27.1 now).
MISS_BUDGET = 38
#: ... and one SSD miss on a full DRAM+NVM chain whose eviction cascades:
#: the fetch lands in DRAM, the clean DRAM victim is admitted to NVM, and
#: NVM's clean victim is dropped (94.4 while each level of the cascade
#: was ``insert_with_space`` → ``ensure_space`` → ``evict_from_node`` →
#: ``admit_eviction_to_lower``, each with its own latch guard and
#: device hop; 56.4 while each op opened and closed a per-thread CPU
#: batch; 54.4 now).
CASCADE_BUDGET = 64
#: ... and the WAL bookkeeping of one write on a DRAM+NVM hierarchy —
#: the logging CPU charge, an UPDATE and its COMMIT, each persisted by
#: one NVM write and one barrier — ``_charge_update_wal`` included (50
#: before a log resolved its device, sized, checksummed and built a
#: record once each; 24 when this budget was set; 20 while a charge
#: committed through a second accumulator frame; 17 now).
WAL_BUDGET = 27
#: ... and one new mapping-table entry, ``get_or_create`` of a page not
#: seen before: Python-level calls and bytes it keeps alive (13 calls
#: and 2,020 B while each entry built four ``threading.RLock`` wrappers
#: through a generator and a ``threading.Condition`` of its own; 2 calls
#: and ~660 B with four C-constructed latches, four copy slots and one
#: shared condition; ~545 B with three of each, one per tier of
#: DRAM-NVM-SSD).
ENTRY_CALL_BUDGET = 2
ENTRY_BYTE_BUDGET = 600
#: ... and generation: Python-level calls per op of one
#: ``YcsbWorkload.next_ops(1000)`` chunk.  Read-only, the chunk is a
#: fixed handful of calls — the key draws in one comprehension, no mix
#: draw (3 per op while each key went through ``next`` → ``next`` →
#: ``scramble`` and each op drew its mix; 0.008 now).  Read/update
#: (YCSB-BA), each update's column is a ``randrange`` of two Python
#: frames (4.06 per op before; 1.06 now).
GEN_RO_BUDGET = 0.01
GEN_BA_BUDGET = 1.1
#: ... and HyMem's cache-line pages (fine-grained, no mini pages): an
#: NVM hit promoted to DRAM, installing a cache-line copy whose room is
#: one clean partial victim's frame (77 while a partial hit went
#: ``climb`` → ``serve`` → ``serve_resident_access`` →
#: ``_finish_resident_access``, a migration took its latches through a
#: guard object, a load charged through four device and accumulator
#: calls and two ``Tier``-keyed dict lookups, page masks were read
#: through range-checking methods, and a clean victim went through the
#: write-back dispatch; 38 while each op opened and closed a per-thread
#: CPU batch; 36 now) ...
FINE_INSTALL_BUDGET = 48
#: ... a DRAM hit on a cache-line page that loads one loading unit (36
#: before; 13 with a per-thread CPU batch per op; 11 now) ...
FINE_LOAD_BUDGET = 20
#: ... and the average op, warm-up and measurement, of the quick 256 B
#: Fig. 11 cell (56.5 before; 26.7 with a per-thread CPU batch per op;
#: 24.7 now: 56 % of its ops are NVM hits installing a copy, a third
#: DRAM hits that load).
FIG11_OP_BUDGET = 34
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


@pytest.mark.parametrize("mix, budget", [(YCSB_RO, GEN_RO_BUDGET),
                                         (YCSB_BA, GEN_BA_BUDGET)],
                         ids=["ro", "ba"])
def test_generation_stays_within_call_budget(mix, budget):
    workload = YcsbWorkload(100_000, mix=mix, seed=3)
    workload.next_ops(OPS)

    calls = python_calls(lambda: workload.next_ops(OPS)) - 1  # the lambda
    assert calls / OPS <= budget, (
        f"{calls / OPS:.3f} Python-level calls per generated "
        f"{mix.name} op, budget {budget}"
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


def test_cascading_miss_stays_within_frame_budget():
    # Fetches bypass NVM (N_r = 0) and evictions are always admitted
    # (N_w = 1): NVM is DRAM's victim cache, and a page read after both
    # pools filled is a miss whose eviction reaches the bottom.
    policy = MigrationPolicy(1.0, 1.0, 0.0, 1.0, name="victim-cache")
    bm = make_bm(dram_gb=2.0, nvm_gb=4.0, policy=policy, pages_per_gb=32)
    buffered = bm.pools[Tier.DRAM].max_entries + bm.pools[Tier.NVM].max_entries
    pages = list(range(4 * buffered))
    bm.allocate_pages(pages)
    for page in pages[:2 * buffered]:  # both pools full, past a sweep
        bm.read(page, 4, TUPLE_SIZE)
    bm.reset_stats()

    def run():
        for index in range(OPS):
            bm.read(pages[(2 * buffered + index) % len(pages)], 4, TUPLE_SIZE)

    calls = python_calls(run) - 1  # ``run`` itself
    stats = bm.stats
    assert stats.ssd_fetches == stats.dram_evictions == OPS
    assert stats.dram_to_nvm == stats.nvm_evictions == stats.clean_drops == OPS
    assert calls / OPS <= CASCADE_BUDGET, (
        f"{calls / OPS:.1f} Python-level calls per cascading miss, "
        f"budget {CASCADE_BUDGET}"
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


def _cacheline_bm():
    """HyMem with cache-line pages: 64 DRAM and 128 NVM frames."""
    return make_bm(dram_gb=2.0, nvm_gb=4.0, policy=HYMEM_POLICY,
                   config=BufferManagerConfig(fine_grained=True),
                   pages_per_gb=32)


def test_cacheline_install_stays_within_frame_budget():
    # Every page is on NVM and twice as many as DRAM holds are read in a
    # cycle: each read is an NVM hit that installs a cache-line copy in
    # DRAM, evicting the clean copy installed longest ago.
    bm = _cacheline_bm()
    pages = list(range(bm.pools[Tier.NVM].max_entries))
    bm.allocate_pages(pages)
    for page in pages:
        assert bm.prime_page(Tier.NVM, page)
    for index in range(2 * len(pages)):
        bm.read(pages[index % len(pages)], 0, 64)
    bm.reset_stats()

    def run():
        for index in range(OPS):
            bm.read(pages[index % len(pages)], 0, 64)

    calls = python_calls(run) - 1  # ``run`` itself
    stats = bm.stats
    assert stats.nvm_hits == stats.nvm_to_dram == OPS
    assert stats.dram_evictions == stats.fine_grained_loads == OPS
    assert stats.clean_drops == stats.dram_to_nvm == 0
    assert calls / OPS <= FINE_INSTALL_BUDGET, (
        f"{calls / OPS:.1f} Python-level calls per cache-line install, "
        f"budget {FINE_INSTALL_BUDGET}"
    )


def test_cacheline_load_stays_within_frame_budget():
    # Each DRAM page holds one loading unit; every read asks for a line
    # of the next unit, which is loaded.
    bm = _cacheline_bm()
    pages = list(range(bm.pools[Tier.DRAM].max_entries))
    bm.allocate_pages(pages)
    for page in pages:
        assert bm.prime_page(Tier.NVM, page)
        bm.read(page, 0, 64)
    bm.reset_stats()
    unit = bm.config.loading_unit.nbytes

    def run():
        for index in range(OPS):
            bm.read(pages[index % len(pages)],
                    unit * (1 + index // len(pages)), 64)

    calls = python_calls(run) - 1  # ``run`` itself
    stats = bm.stats
    assert stats.dram_hits == stats.fine_grained_loads == OPS
    assert stats.nvm_hits == 0
    assert calls / OPS <= FINE_LOAD_BUDGET, (
        f"{calls / OPS:.1f} Python-level calls per cache-line load, "
        f"budget {FINE_LOAD_BUDGET}"
    )


def test_fig11_op_stays_within_frame_budget(monkeypatch):
    cell = fig11_granularity.cells(quick=True)[256]
    phases: list[tuple[int, int]] = []
    run_phase = WorkloadRunner._run_phase

    def counted(runner, run, total, sample=False):
        phases.append((total, python_calls(
            lambda: run_phase(runner, run, total, sample)) - 2))

    monkeypatch.setattr(WorkloadRunner, "_run_phase", counted)
    cell.run()
    ops = sum(total for total, _ in phases)
    calls = sum(counted for _, counted in phases)
    assert ops == cell.effort.warmup_ops + cell.effort.measure_ops
    assert calls / ops <= FIG11_OP_BUDGET, (
        f"{calls / ops:.1f} Python-level calls per Fig. 11 op, "
        f"budget {FIG11_OP_BUDGET}"
    )
