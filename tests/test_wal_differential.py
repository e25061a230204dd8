"""The logged write, pinned to what it charged before it was made cheap.

``LogManager.append`` sizes, checksums, constructs and persists a
record in far fewer steps than it used to; what it *simulates* must not
have moved by one unit.  Each scenario below drives one seeded stream
of appends, commits, WAL-rule barriers, forced flushes and checkpoints
through a log in one mode and hashes everything observable: every
record's ``(lsn, type, txn, page, checksum, size)``, the log's
counters, every device's traffic counters, what recovery sees, and the
accumulator's exact fixed-point total.

The digests were computed at the commit *before* the append path was
rewritten (``1953d43``) by running ``scenario_digest`` from this file
against that tree; a change that moves any of them changed simulated
behaviour, not just host time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import zlib

import pytest

from repro.core.buffer_manager import BufferManager
from repro.core.policy import DRAM_SSD_POLICY, SPITFIRE_LAZY
from repro.faults.injector import inject_faults
from repro.faults.plan import DeviceGaveUpError, FaultPlan, FaultSchedule
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale
from repro.wal.checkpoint import Checkpointer
from repro.wal.log_manager import LogManager
from repro.wal.records import LogRecord, LogRecordType, record_checksum

SCALE = SimulationScale(pages_per_gb=8)
PAGES = 48
STEPS = 600

#: name -> (hierarchy kwargs, policy, log kwargs, NVM write indices that
#: raise DeviceIOError).
SCENARIOS = {
    # 4 KiB NVM log buffer: the stream drains it to SSD dozens of times.
    "nvm_buffer_drains": (
        dict(shape=HierarchyShape(dram_gb=2.0, nvm_gb=4.0, ssd_gb=100.0)),
        SPITFIRE_LAZY, dict(nvm_buffer_bytes=4096), None),
    "dram_ssd_group_commit": (
        dict(shape=HierarchyShape(dram_gb=2.0, nvm_gb=0.0, ssd_gb=100.0)),
        DRAM_SSD_POLICY, dict(group_commit_size=8), None),
    # NVM present but consumed by the hardware cache: group commit.
    "memory_mode": (
        dict(shape=HierarchyShape(dram_gb=2.0, nvm_gb=4.0, ssd_gb=100.0),
             memory_mode=True),
        DRAM_SSD_POLICY, dict(group_commit_size=8), None),
    # The first NVM write fails once: one charged backoff, one retry.
    "nvm_first_write_retried": (
        dict(shape=HierarchyShape(dram_gb=2.0, nvm_gb=4.0, ssd_gb=100.0)),
        SPITFIRE_LAZY, dict(nvm_buffer_bytes=4096), frozenset({0})),
    # ... and fails four times: the retry budget is spent.
    "nvm_first_write_gives_up": (
        dict(shape=HierarchyShape(dram_gb=2.0, nvm_gb=4.0, ssd_gb=100.0)),
        SPITFIRE_LAZY, dict(nvm_buffer_bytes=4096),
        frozenset({0, 1, 2, 3})),
}

EXPECTED = {
    "nvm_buffer_drains":
        "7e686ed393dbf979cdb58325faf26db8b1518dc5ee5c264d30d5bb35c58f9c13",
    "dram_ssd_group_commit":
        "30c3ca336b23c39ac197cb7fe80b80587eaf5d0c30e9e217dcc09940e4204078",
    "memory_mode":
        "6683e81a8ecf658cf09e9c65a6ed2cfb17d5f94b53bb28fa5f1c5bb9882d6cae",
    "nvm_first_write_retried":
        "c0af9176996c8706031951dafb7a083fb1aeb94238de4e12b66e13e4760ea78d",
    "nvm_first_write_gives_up":
        "3b36310b79223ddc77cbe4ab1a4efeb5f79ba585b199c818ee5280529f1f88ea",
}


def drive(bm, log, checkpointer, rng) -> None:
    """One seeded append/commit/checkpoint stream."""
    modifying = (LogRecordType.UPDATE, LogRecordType.INSERT,
                 LogRecordType.DELETE, LogRecordType.CLR)
    last_lsn: dict[int, int] = {}
    for _ in range(STEPS):
        txn = rng.randrange(1, 6)
        roll = rng.random()
        if roll < 0.50:
            kind = rng.choice(modifying)
            before = (None if kind is LogRecordType.INSERT
                      else rng.randbytes(rng.randrange(0, 180)))
            after = (None if kind is LogRecordType.DELETE
                     else rng.randbytes(rng.randrange(0, 180)))
            page = rng.randrange(PAGES)
            bm.write(page, 0, 64)
            record = log.append(
                kind, txn, page_id=page, slot=rng.randrange(16),
                prev_lsn=last_lsn.get(txn, -1), before=before, after=after,
                undo_next_lsn=(rng.randrange(1, log.next_lsn)
                               if kind is LogRecordType.CLR else -1),
            )
            last_lsn[txn] = record.lsn
        elif roll < 0.82:
            log.commit(txn, prev_lsn=last_lsn.pop(txn, -1))
        elif roll < 0.87:
            last_lsn[txn] = log.append(LogRecordType.BEGIN, txn).lsn
        elif roll < 0.92:
            log.ensure_durable(rng.randrange(1, log.next_lsn))
        elif roll < 0.97:
            checkpointer.checkpoint()
        else:
            log.flush()


def run_scenario(name: str) -> dict:
    """Run one scenario; returns everything observable about it."""
    hierarchy_kwargs, policy, log_kwargs, nvm_write_errors = SCENARIOS[name]
    hierarchy = StorageHierarchy(scale=SCALE, **hierarchy_kwargs)
    handle = None
    if nvm_write_errors is not None:
        # Wrapped before anything captures a device, as documented.
        handle = inject_faults(hierarchy, FaultPlan(schedules={
            "nvm": FaultSchedule(write_errors=nvm_write_errors)}))
    bm = BufferManager(hierarchy, policy)
    bm.allocate_pages(range(PAGES))
    log = LogManager(hierarchy, **log_kwargs)
    checkpointer = Checkpointer(bm, log, interval_ops=10**9)
    records = []
    log.on_append = records.append
    gave_up = None
    if nvm_write_errors is not None:
        # The log's first record meets the schedule's first write(s).
        try:
            log.append(LogRecordType.UPDATE, 1, page_id=0, before=b"old",
                       after=b"new")
        except DeviceGaveUpError as exc:
            gave_up = [exc.tier_key, exc.op, exc.op_index, exc.attempts]
    drive(bm, log, checkpointer, random.Random(20_260_917))
    durable_lsn = log.durable_lsn
    return {
        "records": [
            [r.lsn, r.record_type.value, r.txn_id, r.page_id, r.checksum,
             r.size_bytes()]
            for r in records
        ],
        "uses_nvm": log.uses_nvm,
        "stats": dataclasses.asdict(log.stats),
        "next_lsn": log.next_lsn,
        "durable_lsn": durable_lsn,
        "recovered": [[r.lsn, r.checksum] for r in log.recovered_records()],
        "checkpoints": checkpointer.keeper.checkpoints,
        "devices": {
            tier.name: dataclasses.astuple(device.snapshot_counters())
            for tier, device in hierarchy.devices.items()
        },
        "total_fp": hierarchy.cost.total_fp,
        "gave_up": gave_up,
        "faults": (None if handle is None
                   else [handle.faults_injected(), handle.retries()]),
    }


def scenario_digest(name: str) -> str:
    payload = json.dumps(run_scenario(name), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_logged_stream_matches_the_parent_commit(name):
    assert scenario_digest(name) == EXPECTED[name]


def test_scenarios_exercise_what_they_name():
    """The pinned streams are not vacuous."""
    nvm = run_scenario("nvm_buffer_drains")
    assert nvm["uses_nvm"] and nvm["stats"]["nvm_buffer_drains"] > 10
    assert len(nvm["checkpoints"]) > 10 and len(nvm["records"]) > 400
    for name in ("dram_ssd_group_commit", "memory_mode"):
        grouped = run_scenario(name)
        assert not grouped["uses_nvm"]
        assert grouped["stats"]["group_commits"] > 10
        assert grouped["stats"]["wal_guard_flushes"] > 0
    retried = run_scenario("nvm_first_write_retried")
    assert retried["gave_up"] is None and retried["faults"] == [1, 1]
    assert retried["total_fp"] > nvm["total_fp"]  # the charged backoff
    gave_up = run_scenario("nvm_first_write_gives_up")
    assert gave_up["gave_up"] == ["nvm", "write", 3, 4]
    assert gave_up["faults"] == [4, 3]
    # The failed append consumed its LSN and was counted, but never
    # reached the buffer.
    assert gave_up["records"][0][0] == 2
    assert gave_up["stats"]["records_appended"] == len(gave_up["records"]) + 1


def chained_checksum(record: LogRecord) -> int:
    """The checksum as it was first written: one ``crc32`` call per
    piece, chained.  Kept as the reference for the joined buffer."""
    header = (
        f"{record.lsn}|{record.record_type.value}|{record.txn_id}|"
        f"{record.page_id}|{record.slot}|{record.prev_lsn}|"
        f"{record.undo_next_lsn}|"
    ).encode("ascii")
    crc = zlib.crc32(header)
    for image in (record.before, record.after):
        if image is None:
            crc = zlib.crc32(b"-", crc)
        else:
            crc = zlib.crc32(f"{len(image)}:".encode("ascii"), crc)
            crc = zlib.crc32(image, crc)
    return crc & 0xFFFFFFFF


def test_joined_buffer_checksum_equals_the_chained_one():
    rng = random.Random(5)
    kinds = list(LogRecordType)

    def image():
        roll = rng.random()
        if roll < 0.3:
            return None
        return b"" if roll < 0.4 else rng.randbytes(rng.randrange(1, 300))

    for _ in range(5_000):
        record = LogRecord(
            rng.randrange(1, 10**12), rng.choice(kinds),
            rng.randrange(-1, 10**6), rng.randrange(-1, 10**6),
            rng.randrange(-1, 100), rng.randrange(-1, 10**12),
            image(), image(), rng.randrange(-1, 10**12),
        )
        assert record.compute_checksum() == chained_checksum(record)
    # bytes-like images checksum like bytes.
    assert record_checksum(1, LogRecordType.UPDATE, 2, 3, 4, 5,
                           bytearray(b"ab"), memoryview(b"c"), 6) \
        == record_checksum(1, LogRecordType.UPDATE, 2, 3, 4, 5,
                           b"ab", b"c", 6)
