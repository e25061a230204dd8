"""Optimistic lock coupling primitives."""

import threading

import pytest

from repro.index.olc import OlcRestart, OptimisticLatch


class TestReadProtocol:
    def test_read_and_validate(self):
        latch = OptimisticLatch()
        version = latch.read_lock_or_restart()
        latch.check_or_restart(version)  # no writer: fine

    def test_writer_invalidates_reader(self):
        latch = OptimisticLatch()
        version = latch.read_lock_or_restart()
        latch.write_lock()
        latch.write_unlock()
        with pytest.raises(OlcRestart):
            latch.check_or_restart(version)

    def test_read_during_write_restarts(self):
        latch = OptimisticLatch()
        latch.write_lock()
        with pytest.raises(OlcRestart):
            latch.read_lock_or_restart()
        latch.write_unlock()


class TestWriteProtocol:
    def test_upgrade_succeeds_when_unchanged(self):
        latch = OptimisticLatch()
        version = latch.read_lock_or_restart()
        latch.upgrade_to_write_lock_or_restart(version)
        with pytest.raises(OlcRestart):  # readers see the writer
            latch.read_lock_or_restart()
        latch.write_unlock()
        assert latch.read_lock_or_restart() == version + 1

    def test_upgrade_fails_after_intervening_write(self):
        latch = OptimisticLatch()
        version = latch.read_lock_or_restart()
        latch.write_lock()
        latch.write_unlock()
        with pytest.raises(OlcRestart):
            latch.upgrade_to_write_lock_or_restart(version)

    def test_unlock_bumps_version(self):
        latch = OptimisticLatch()
        before = latch.version
        latch.write_lock()
        latch.write_unlock()
        assert latch.version == before + 1

    def test_unlock_without_lock_is_error(self):
        with pytest.raises(RuntimeError):
            OptimisticLatch().write_unlock()


class TestConcurrency:
    def test_writers_are_mutually_exclusive(self):
        latch = OptimisticLatch()
        counter = {"value": 0, "max_in_section": 0}

        def writer():
            for _ in range(100):
                latch.write_lock()
                counter["value"] += 1
                latch.write_unlock()

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["value"] == 400
        assert latch.version == 400
