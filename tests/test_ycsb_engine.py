"""Engine-level YCSB driver."""

import pytest

from repro.core.policy import SPITFIRE_LAZY
from repro.engine.engine import StorageEngine
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale
from repro.workloads.ycsb import TUPLE_SIZE, YCSB_BA, YCSB_RO, YCSB_WH
from repro.workloads.ycsb_engine import TABLE_NAME, YcsbEngine


def make_driver(mix=YCSB_BA, num_tuples=200, seed=2) -> YcsbEngine:
    hierarchy = StorageHierarchy(
        HierarchyShape(2.0, 8.0, 100.0), SimulationScale(pages_per_gb=8)
    )
    engine = StorageEngine(hierarchy, SPITFIRE_LAZY)
    driver = YcsbEngine(engine, num_tuples=num_tuples, mix=mix, seed=seed)
    driver.load()
    return driver


class TestLoad:
    def test_populates_all_tuples(self):
        driver = make_driver(num_tuples=100)
        assert driver.engine.table(TABLE_NAME).tuple_count == 100
        for key in (0, 50, 99):
            assert driver.verify_tuple(key)

    def test_tuple_layout(self):
        driver = make_driver(num_tuples=10)
        value = driver.engine.execute(
            lambda txn: driver.engine.read(txn, TABLE_NAME, 7)
        )
        assert len(value) == TUPLE_SIZE
        assert int.from_bytes(value[:4], "big") == 7

    def test_invalid_size(self):
        hierarchy = StorageHierarchy(
            HierarchyShape(2, 8, 100), SimulationScale(pages_per_gb=8)
        )
        engine = StorageEngine(hierarchy, SPITFIRE_LAZY)
        with pytest.raises(ValueError):
            YcsbEngine(engine, num_tuples=0)

    @pytest.mark.parametrize("skew", [-0.5, 1.0])
    def test_skew_outside_unit_interval(self, skew):
        hierarchy = StorageHierarchy(
            HierarchyShape(2, 8, 100), SimulationScale(pages_per_gb=8)
        )
        engine = StorageEngine(hierarchy, SPITFIRE_LAZY)
        with pytest.raises(ValueError, match="skew"):
            YcsbEngine(engine, num_tuples=10, skew=skew)


class TestMixes:
    def test_read_only(self):
        driver = make_driver(mix=YCSB_RO)
        stats = driver.run(100)
        assert stats.reads == 100
        assert stats.updates == 0

    def test_write_heavy(self):
        driver = make_driver(mix=YCSB_WH, seed=5)
        stats = driver.run(300)
        assert stats.updates > 240

    def test_balanced(self):
        driver = make_driver(mix=YCSB_BA, seed=6)
        stats = driver.run(400)
        assert 140 < stats.reads < 260
        assert stats.operations == 400


class TestUpdateSemantics:
    def test_updates_preserve_key_prefix(self):
        driver = make_driver(mix=YCSB_WH, num_tuples=50, seed=7)
        driver.run(400)
        for key in range(0, 50, 5):
            assert driver.verify_tuple(key), key

    def test_updates_change_exactly_one_column(self):
        driver = make_driver(num_tuples=10, seed=8)
        engine = driver.engine
        before = engine.execute(lambda txn: engine.read(txn, TABLE_NAME, 3))
        driver._update_txn(3, column=2)
        after = engine.execute(lambda txn: engine.read(txn, TABLE_NAME, 3))
        assert after != before
        # Only bytes of column 2 (offset 204..304) may differ.
        diffs = {i for i, (a, b) in enumerate(zip(before, after)) if a != b}
        assert diffs, "update was a no-op"
        assert diffs <= set(range(204, 304))

    def test_wal_sees_engine_updates(self):
        driver = make_driver(mix=YCSB_WH, num_tuples=50, seed=9)
        appended_before = driver.engine.log.stats.records_appended
        driver.run(50)
        assert driver.engine.log.stats.records_appended > appended_before
