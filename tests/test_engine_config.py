"""Engine configuration knobs and error paths."""

import pytest

from repro.core.buffer_manager import BufferManagerConfig
from repro.core.policy import SPITFIRE_LAZY
from repro.engine.engine import StorageEngine
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale

SCALE = SimulationScale(pages_per_gb=8)


def hierarchy() -> StorageHierarchy:
    return StorageHierarchy(HierarchyShape(2, 8, 100), SCALE)


class TestEngineConfig:
    def test_fine_grained_bm_rejected(self):
        with pytest.raises(ValueError, match="full-page"):
            StorageEngine(hierarchy(), SPITFIRE_LAZY,
                          bm_config=BufferManagerConfig(fine_grained=True))

    def test_custom_bm_config_accepted(self):
        engine = StorageEngine(hierarchy(), SPITFIRE_LAZY,
                               bm_config=BufferManagerConfig(replacement="lru",
                                                             seed=9))
        assert engine.bm.config.replacement == "lru"


class TestTransactionBookkeeping:
    def test_begin_logs_begin_record(self):
        from repro.wal.records import LogRecordType

        engine = StorageEngine(hierarchy(), SPITFIRE_LAZY)
        txn = engine.begin()
        assert txn.last_lsn > 0
        records = engine.log.recovered_records()
        assert records[0].record_type is LogRecordType.BEGIN
        engine.abort(txn)

    def test_abort_without_writes_is_clean(self):
        engine = StorageEngine(hierarchy(), SPITFIRE_LAZY)
        txn = engine.begin()
        engine.abort(txn)
        assert engine.mvto.aborts == 1

    def test_double_abort_tolerated(self):
        engine = StorageEngine(hierarchy(), SPITFIRE_LAZY)
        engine.create_table("t", tuple_size=1024)
        txn = engine.begin()
        engine.abort(txn)
        engine.abort(txn)  # second abort is a no-op at the MVTO layer
        assert engine.mvto.aborts == 1
