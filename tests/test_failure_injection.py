"""Failure injection: crash the engine at random points and recover.

Each scenario runs a random transactional workload, crashes the
volatile state at an arbitrary point (including mid-transaction) via
the unified :class:`~repro.faults.crash.CrashController`, runs
recovery, and asserts the ACID postconditions:

* every transaction that committed *durably* is fully present;
* no transaction that failed to commit leaks any effect;
* recovery is idempotent (running it twice changes nothing).

The exhaustive companion to these sampled scenarios is the crash-point
matrix in :mod:`repro.faults.crashpoints` (``repro-experiments chaos``),
which replays a reference workload crashing at *every* boundary.
"""

import json
import random

import pytest

from repro.core.policy import DRAM_SSD_POLICY, SPITFIRE_EAGER, SPITFIRE_LAZY
from repro.engine.engine import EngineConfig, StorageEngine
from repro.faults.crash import CrashController
from repro.faults.plan import TailFault
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale
from repro.txn.transaction import TransactionAborted
from repro.wal.recovery import RecoveryManager

SCALE = SimulationScale(pages_per_gb=8)


def build_engine(policy=SPITFIRE_LAZY, nvm_gb=8.0):
    hierarchy = StorageHierarchy(HierarchyShape(2.0, nvm_gb, 100.0), SCALE)
    engine = StorageEngine(
        hierarchy, policy,
        config=EngineConfig(checkpoint_interval_ops=25),
    )
    if engine.log is not None:
        engine.log.group_commit_size = 1  # every commit durable
    engine.create_table("t", tuple_size=128)
    return engine


def run_random_workload(engine, seed, operations, crash_after):
    """Apply random committed writes; returns the expected durable state."""
    rng = random.Random(seed)
    expected: dict[int, bytes] = {}
    known: set[int] = set()
    for index in range(operations):
        key = rng.randrange(24)
        value = json.dumps([index, rng.random()]).encode()

        def body(txn):
            if key in known:
                engine.update(txn, "t", key, value)
            else:
                engine.insert(txn, "t", key, value)

        try:
            engine.execute(body)
            expected[key] = value
            known.add(key)
        except TransactionAborted:
            pass
        if index == crash_after:
            return expected, True
    return expected, False


def durable_state(engine, keys):
    state = {}
    for key in keys:
        value = engine.committed_value("t", key)
        if value is not None:
            state[key] = value
    return state


@pytest.mark.parametrize("seed", [1, 7, 23, 99])
@pytest.mark.parametrize("policy", [SPITFIRE_LAZY, SPITFIRE_EAGER])
def test_random_crash_points_preserve_committed_state(seed, policy):
    rng = random.Random(seed * 31)
    crash_after = rng.randrange(10, 60)
    engine = build_engine(policy=policy)
    controller = engine.crash_controller()
    expected, crashed = run_random_workload(engine, seed, 70, crash_after)
    assert crashed
    controller.crash()
    report = RecoveryManager(engine.bm, engine.log).recover()
    state = durable_state(engine, expected)
    assert state == expected, (
        f"durable state diverged after crash at op {crash_after} "
        f"(recovery: {report})"
    )


@pytest.mark.parametrize("seed", [3, 17])
def test_crash_mid_transaction_loses_only_the_loser(seed):
    engine = build_engine()
    controller = CrashController(engine)
    expected, _ = run_random_workload(engine, seed, 20, crash_after=10**9)
    # Start a transaction and crash before it commits.
    txn = engine.begin()
    victim_key = 999
    engine.insert(txn, "t", victim_key, b"never-committed")
    engine.bm.flush_dirty_dram()  # steal the dirty page
    engine.log.flush()
    controller.crash()
    report = RecoveryManager(engine.bm, engine.log).recover()
    assert txn.txn_id in report.losers
    assert engine.committed_value("t", victim_key) is None
    assert durable_state(engine, expected) == expected


def test_recovery_is_idempotent():
    engine = build_engine()
    expected, _ = run_random_workload(engine, seed=5, operations=30,
                                      crash_after=10**9)
    engine.crash_controller().crash()
    recovery = RecoveryManager(engine.bm, engine.log)
    recovery.recover()
    first = durable_state(engine, expected)
    second_report = recovery.recover()
    assert durable_state(engine, expected) == first
    # Second pass redoes nothing (LSNs already present).
    assert second_report.redo_applied == 0


def test_dram_ssd_crash_loses_unflushed_group_commits():
    """Without NVM, commits pending in the group buffer are lost — the
    durability window group commit trades away (§3.2)."""
    engine = build_engine(policy=DRAM_SSD_POLICY, nvm_gb=0.0)
    engine.log.group_commit_size = 1_000  # nothing flushes
    engine.execute(lambda txn: engine.insert(txn, "t", 1, b"volatile"))
    report = engine.crash_controller().crash()
    assert report.lost_volatile_records > 0
    RecoveryManager(engine.bm, engine.log).recover()
    assert engine.committed_value("t", 1) is None


def test_nvm_log_buffer_closes_the_window():
    """With NVM, the same scenario survives: the commit record was
    persisted in the NVM log buffer."""
    engine = build_engine(policy=SPITFIRE_LAZY)
    engine.log.group_commit_size = 1_000
    engine.execute(lambda txn: engine.insert(txn, "t", 1, b"durable"))
    engine.crash_controller().crash()
    RecoveryManager(engine.bm, engine.log).recover()
    assert engine.committed_value("t", 1) == b"durable"


def test_simulate_crash_delegates_to_controller():
    """The legacy ``engine.simulate_crash()`` and an explicit controller
    produce the same crash (the hooks are unified, not parallel)."""
    engine = build_engine()
    run_random_workload(engine, seed=11, operations=15, crash_after=10**9)
    report = engine.simulate_crash()
    recovered = RecoveryManager(engine.bm, engine.log).recover()
    assert report.durable_lsn > 0
    assert recovered.redo_applied >= 0  # recovery ran over the same state


@pytest.mark.parametrize("tail_fault", [TailFault.TORN_WRITE,
                                        TailFault.DROPPED_PERSIST])
def test_crash_coupled_tail_faults_shrink_durability(tail_fault):
    """A torn or dropped WAL tail record moves the verified durable LSN
    back to the last *valid* record; recovery then behaves exactly as a
    clean crash at that LSN would — the last transaction becomes a
    loser and the durable state folds only commits at or below the
    post-fault durable LSN."""
    from repro.faults.invariants import CommittedOp, check_post_recovery

    engine = build_engine(policy=DRAM_SSD_POLICY, nvm_gb=0.0)
    controller = engine.crash_controller()
    rng = random.Random(29)
    ops = []
    known: set[int] = set()
    for index in range(25):
        key = rng.randrange(24)
        value = json.dumps([index, rng.random()]).encode()

        def body(txn):
            if key in known:
                engine.update(txn, "t", key, value)
            else:
                engine.insert(txn, "t", key, value)

        engine.execute(body)
        known.add(key)
        ops.append(CommittedOp(engine.log.durable_lsn, key, value))
    full_lsn = engine.log.durable_lsn
    report = controller.crash(tail_fault)
    assert report.tail_lsn > 0
    assert report.durable_lsn < full_lsn
    RecoveryManager(engine.bm, engine.log).recover()
    if tail_fault is TailFault.TORN_WRITE:
        # The checksum scan found and truncated the torn record.
        assert engine.log.stats.torn_records_dropped >= 1
    invariants = check_post_recovery(engine, "t", ops, report.durable_lsn,
                                     all_keys=range(24))
    invariants.raise_if_failed()
