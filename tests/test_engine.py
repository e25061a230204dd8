"""Storage-engine integration: CRUD, isolation, rollback, crash recovery."""

import pytest

from repro.core.policy import DRAM_SSD_POLICY, SPITFIRE_EAGER, SPITFIRE_LAZY
from repro.engine.engine import EngineConfig, StorageEngine
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale
from repro.txn.transaction import TransactionAborted
from repro.wal.recovery import RecoveryManager

SCALE = SimulationScale(pages_per_gb=8)


def make_engine(policy=SPITFIRE_EAGER, dram_gb=2.0, nvm_gb=8.0,
                config: EngineConfig | None = None) -> StorageEngine:
    hierarchy = StorageHierarchy(
        HierarchyShape(dram_gb, nvm_gb, 100.0), SCALE
    )
    engine = StorageEngine(hierarchy, policy, config=config)
    engine.create_table("kv", tuple_size=256)
    return engine


class TestSchema:
    def test_create_table(self):
        engine = make_engine()
        assert engine.table("kv").tuples_per_page == 64

    def test_duplicate_table(self):
        engine = make_engine()
        with pytest.raises(ValueError):
            engine.create_table("kv", tuple_size=256)

    def test_missing_table(self):
        with pytest.raises(KeyError):
            make_engine().table("nope")


class TestCrud:
    def test_insert_and_read(self):
        engine = make_engine()

        def body(txn):
            engine.insert(txn, "kv", 1, b"value-1")
            return engine.read(txn, "kv", 1)

        assert engine.execute(body) == b"value-1"

    def test_read_missing_key(self):
        engine = make_engine()
        assert engine.execute(lambda txn: engine.read(txn, "kv", 404)) is None

    def test_update(self):
        engine = make_engine()
        engine.execute(lambda txn: engine.insert(txn, "kv", 1, b"old"))
        engine.execute(lambda txn: engine.update(txn, "kv", 1, b"new"))
        assert engine.execute(lambda txn: engine.read(txn, "kv", 1)) == b"new"

    def test_update_missing_key(self):
        engine = make_engine()
        txn = engine.begin()
        with pytest.raises(KeyError):
            engine.update(txn, "kv", 1, b"x")
        engine.abort(txn)

    def test_duplicate_insert_rejected(self):
        engine = make_engine()
        engine.execute(lambda txn: engine.insert(txn, "kv", 1, b"a"))
        txn = engine.begin()
        with pytest.raises(KeyError):
            engine.insert(txn, "kv", 1, b"b")
        engine.abort(txn)

    def test_delete(self):
        engine = make_engine()
        engine.execute(lambda txn: engine.insert(txn, "kv", 1, b"x"))
        assert engine.execute(lambda txn: engine.delete(txn, "kv", 1))
        assert engine.execute(lambda txn: engine.read(txn, "kv", 1)) is None

    def test_delete_missing(self):
        engine = make_engine()
        assert not engine.execute(lambda txn: engine.delete(txn, "kv", 9))

    def test_oversized_value_rejected(self):
        engine = make_engine()
        txn = engine.begin()
        with pytest.raises(ValueError):
            engine.insert(txn, "kv", 1, b"x" * 1000)
        engine.abort(txn)

    def test_scan(self):
        engine = make_engine()

        def load(txn):
            for key in range(20):
                engine.insert(txn, "kv", key, f"v{key}".encode())

        engine.execute(load)
        rows = engine.execute(lambda txn: engine.scan(txn, "kv", 5, 8))
        assert rows == [(k, f"v{k}".encode()) for k in range(5, 9)]

    def test_many_tuples_span_pages(self):
        engine = make_engine()

        def load(txn):
            for key in range(200):
                engine.insert(txn, "kv", key, b"p" * 100)

        engine.execute(load)
        assert engine.table("kv").tuple_count == 200
        assert engine.execute(lambda txn: engine.read(txn, "kv", 150)) == b"p" * 100


class TestTransactions:
    def test_abort_rolls_back_pages_and_index(self):
        engine = make_engine()
        engine.execute(lambda txn: engine.insert(txn, "kv", 1, b"base"))
        txn = engine.begin()
        engine.update(txn, "kv", 1, b"dirty")
        engine.abort(txn)
        assert engine.execute(lambda t: engine.read(t, "kv", 1)) == b"base"

    def test_write_write_conflict_aborts_one(self):
        engine = make_engine()
        engine.execute(lambda txn: engine.insert(txn, "kv", 1, b"base"))
        t1 = engine.begin()
        t2 = engine.begin()
        engine.update(t2, "kv", 1, b"from-t2")  # newer txn locks first
        with pytest.raises(TransactionAborted):
            engine.update(t1, "kv", 1, b"from-t1")
        engine.abort(t1)
        engine.commit(t2)
        assert engine.execute(lambda t: engine.read(t, "kv", 1)) == b"from-t2"

    def test_execute_retries(self):
        engine = make_engine()
        engine.execute(lambda txn: engine.insert(txn, "kv", 1, b"0"))
        calls = []

        def flaky(txn):
            calls.append(txn.timestamp)
            if len(calls) == 1:
                raise TransactionAborted(txn.txn_id, "synthetic")
            engine.update(txn, "kv", 1, b"1")

        engine.execute(flaky)
        assert len(calls) == 2


class TestDurability:
    def test_committed_data_survives_crash(self):
        engine = make_engine(policy=SPITFIRE_LAZY)
        engine.execute(lambda txn: engine.insert(txn, "kv", 1, b"durable"))
        engine.log.flush()
        engine.bm.flush_all()
        engine.simulate_crash()
        recovery = RecoveryManager(engine.bm, engine.log)
        report = recovery.recover()
        assert 1 not in report.losers
        assert engine.committed_value("kv", 1) == b"durable"

    def test_crash_recovery_redoes_lost_updates(self):
        engine = make_engine(policy=DRAM_SSD_POLICY, nvm_gb=0.0)
        engine.log.group_commit_size = 1
        engine.execute(lambda txn: engine.insert(txn, "kv", 7, b"redo-me"))
        # Not flushed: the update lives only in volatile DRAM.
        engine.simulate_crash()
        report = RecoveryManager(engine.bm, engine.log).recover()
        assert report.redo_applied >= 1
        assert engine.committed_value("kv", 7) == b"redo-me"

    def test_loser_rolled_back_after_crash(self):
        engine = make_engine(policy=DRAM_SSD_POLICY, nvm_gb=0.0)
        engine.log.group_commit_size = 1
        engine.execute(lambda txn: engine.insert(txn, "kv", 1, b"base"))
        engine.bm.flush_all()
        txn = engine.begin()
        engine.update(txn, "kv", 1, b"uncommitted")
        engine.bm.flush_dirty_dram()   # steal: dirty page reaches SSD
        engine.log.flush()
        engine.simulate_crash()        # txn never committed
        report = RecoveryManager(engine.bm, engine.log).recover()
        assert txn.txn_id in report.losers
        assert engine.committed_value("kv", 1) == b"base"


class TestCostAccounting:
    def test_operations_charge_simulated_time(self):
        engine = make_engine()
        engine.execute(lambda txn: engine.insert(txn, "kv", 1, b"x"))
        assert engine.hierarchy.cost.usage("cpu").busy_ns > 0

    def test_checkpointer_runs_on_interval(self):
        engine = make_engine(
            config=EngineConfig(checkpoint_interval_ops=5)
        )

        def load(txn):
            for key in range(12):
                engine.insert(txn, "kv", key, b"x")

        engine.execute(load)
        assert engine.checkpointer.checkpoints_taken >= 2
