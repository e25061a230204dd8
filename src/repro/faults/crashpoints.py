"""Exhaustive crash-point enumeration and replay.

Random crash points (the original ``test_failure_injection`` approach)
sample the failure space; this module *covers* it.  A first run of the
reference workload records every consistency-relevant boundary the
system crosses — each durable WAL append (via the log manager's
``on_append`` observer) and each eviction / migration / write-back /
checkpoint-flush (via the :class:`~repro.core.events.EventBus`).  The
workload is then replayed once per boundary with a
:class:`BoundaryProbe` armed to raise
:class:`~repro.faults.crash.SimulatedCrash` at exactly that point; the
:class:`~repro.faults.crash.CrashController` crashes the system
(optionally applying a crash-coupled WAL-tail or torn-page hazard),
recovery runs, and the full :mod:`~repro.faults.invariants` catalogue
is asserted.

Because workloads, boundary streams, and fault plans are all seeded,
each replay is a picklable :class:`CrashCase` value: the matrix fans
out over the bench executor's process pool and produces byte-identical
JSON for any ``--jobs`` value.

This module deliberately lives outside ``repro.faults.__init__`` — it
imports the engine and workload layers, which the light fault-plan /
crash pieces (imported from ``core.devio``) must not drag in.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from ..core.events import EventType
from ..core.policy import DRAM_SSD_POLICY, SPITFIRE_EAGER, SPITFIRE_LAZY
from ..engine.engine import EngineConfig, StorageEngine
from ..hardware.cost_model import StorageHierarchy
from ..hardware.pricing import HierarchyShape
from ..hardware.specs import SimulationScale
from ..txn.transaction import TransactionAborted
from ..wal.records import LogRecordType
from ..wal.recovery import RecoveryManager
from .crash import CrashController, SimulatedCrash
from .injector import inject_faults
from .invariants import CommittedOp, check_post_recovery
from .plan import FaultPlan, TailFault

__all__ = [
    "Boundary",
    "BoundaryProbe",
    "CrashCase",
    "MatrixConfig",
    "POLICIES",
    "enumerate_boundaries",
    "pending_commit_op",
    "run_crash_case",
    "run_crash_matrix",
]

#: Policies the matrix covers, by picklable name.
POLICIES = {
    "DRAM_SSD": DRAM_SSD_POLICY,
    "SPITFIRE_LAZY": SPITFIRE_LAZY,
    "SPITFIRE_EAGER": SPITFIRE_EAGER,
}

#: A durable WAL append (``LogManager.on_append``).
WAL_APPEND = "wal_append"

#: Bus events that mark consistency-relevant boundaries.
BOUNDARY_EVENTS = {
    EventType.EVICT: "evict",
    EventType.MIGRATE_UP: "migrate_up",
    EventType.MIGRATE_DOWN: "migrate_down",
    EventType.WRITE_BACK: "write_back",
    EventType.FLUSH: "flush",
}


@dataclass(frozen=True)
class Boundary:
    """The ``ordinal``-th occurrence of one boundary kind in a run."""

    kind: str
    ordinal: int

    @property
    def label(self) -> str:
        return f"{self.kind}#{self.ordinal}"


class BoundaryProbe:
    """Counts boundary crossings; optionally crashes at one of them.

    Subscribes to the buffer manager's event bus (for the
    :data:`BOUNDARY_EVENTS` only, its ``event_interest``) and to the log
    manager's ``on_append`` observer.  When ``armed``,
    reaching the armed boundary raises :class:`SimulatedCrash`, which
    unwinds through the engine without aborting the in-flight
    transaction — power loss, not rollback.
    """

    #: The only events the bus needs to offer this subscriber.
    event_interest = frozenset(BOUNDARY_EVENTS)

    def __init__(self, armed: Boundary | None = None) -> None:
        self.armed = armed
        self.counts: dict[str, int] = {}
        self._engine = None

    # -- installation ---------------------------------------------------
    def install(self, engine: StorageEngine) -> "BoundaryProbe":
        engine.bm.events.subscribe(self)
        if engine.log is not None:
            engine.log.on_append = self._note_append
        self._engine = engine
        return self

    def uninstall(self) -> None:
        if self._engine is None:
            return
        self._engine.bm.events.unsubscribe(self)
        if self._engine.log is not None:
            self._engine.log.on_append = None
        self._engine = None

    # -- boundary accounting --------------------------------------------
    def _hit(self, kind: str) -> None:
        ordinal = self.counts.get(kind, 0)
        self.counts[kind] = ordinal + 1
        armed = self.armed
        if (armed is not None and armed.kind == kind
                and armed.ordinal == ordinal):
            raise SimulatedCrash(armed)

    def _note_append(self, record) -> None:
        self._hit(WAL_APPEND)

    def apply_event(self, etype, page_id, tier, src, dirty) -> None:
        self._hit(BOUNDARY_EVENTS[etype])

    # -- results ---------------------------------------------------------
    def boundaries(self) -> list[Boundary]:
        """Every boundary this run crossed, in a stable order."""
        return [
            Boundary(kind, ordinal)
            for kind in sorted(self.counts)
            for ordinal in range(self.counts[kind])
        ]


# ----------------------------------------------------------------------
# The reference workload
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MatrixConfig:
    """Shape of one matrix run — small but boundary-rich by default.

    2 KB tuples over 4 DRAM + 4 NVM frames force evictions, migrations
    in both directions, and NVM→SSD write-backs (under every policy and
    matrix seed) well within ``operations`` ops, so the boundary stream
    exercises every kind — and the torn-page hazard always has a real
    store write to tear — not just WAL appends.
    """

    operations: int = 60
    keys: int = 72
    tuple_size: int = 2048
    dram_gb: float = 0.5
    nvm_gb: float = 0.5
    ssd_gb: float = 100.0
    pages_per_gb: int = 8
    checkpoint_interval_ops: int = 25


def build_case_engine(policy_name: str, config: MatrixConfig,
                      plan: FaultPlan | None = None):
    """Build a (possibly fault-injected) engine for one matrix case.

    Returns ``(engine, handle)`` — injection must wrap the hierarchy's
    devices *before* the engine is built, so every component captures
    the wrapped references.
    """
    policy = POLICIES[policy_name]
    nvm_gb = 0.0 if policy_name == "DRAM_SSD" else config.nvm_gb
    hierarchy = StorageHierarchy(
        HierarchyShape(config.dram_gb, nvm_gb, config.ssd_gb),
        SimulationScale(pages_per_gb=config.pages_per_gb),
    )
    handle = None
    if plan is not None and not plan.is_noop:
        handle = inject_faults(hierarchy, plan)
    engine = StorageEngine(
        hierarchy, policy,
        config=EngineConfig(
            checkpoint_interval_ops=config.checkpoint_interval_ops
        ),
    )
    engine.log.group_commit_size = 1  # every commit durable
    engine.create_table("t", tuple_size=config.tuple_size)
    return engine, handle


def run_reference_workload(engine: StorageEngine, seed: int,
                           config: MatrixConfig,
                           ) -> tuple[list[CommittedOp], bool,
                                      tuple[int, int, bytes] | None]:
    """Drive the deterministic reference workload; crash-aware.

    Returns the acknowledged committed operations (each stamped with
    the LSN that made its commit durable), whether a
    :class:`SimulatedCrash` fired, and the ``(txn_id, key, value)`` of
    the op in flight at the crash (``None`` for a clean end, or when
    the crash hit before the op's transaction body ran).  The in-flight
    op is *not* recorded in ``ops`` — whether it counts as committed
    depends on whether its commit record survived in the durable log,
    which :func:`pending_commit_op` decides after recovery.
    """
    rng = random.Random(seed)
    ops: list[CommittedOp] = []
    known: set[int] = set()
    pending_txn = {"id": -1}
    for index in range(config.operations):
        key = rng.randrange(config.keys)
        value = f"[{index}, {rng.random()!r}]".encode()
        pending_txn["id"] = -1

        def body(txn):
            pending_txn["id"] = txn.txn_id
            if key in known:
                engine.update(txn, "t", key, value)
            else:
                engine.insert(txn, "t", key, value)

        try:
            engine.execute(body)
        except TransactionAborted:
            continue
        except SimulatedCrash:
            if pending_txn["id"] < 0:
                return ops, True, None
            return ops, True, (pending_txn["id"], key, value)
        known.add(key)
        ops.append(CommittedOp(engine.log.durable_lsn, key, value))
    return ops, False, None


def pending_commit_op(engine: StorageEngine, winners: set,
                      pending: tuple[int, int, bytes] | None,
                      ) -> CommittedOp | None:
    """Did the in-flight op's transaction durably commit anyway?

    A crash can land *after* the commit record reached durable media
    but *before* the client was acknowledged.  Durability then says the
    transaction IS committed — recovery must (and does) keep it.  The
    expected-state fold has to match: when the pending transaction is a
    recovery winner, its op is returned as a :class:`CommittedOp`.  The
    commit LSN comes from the retained commit record; the update record
    itself may legitimately be gone (a checkpoint that made the page
    durable truncated it).
    """
    if pending is None:
        return None
    txn_id, key, value = pending
    if txn_id not in winners:
        return None
    for record in engine.log.recovered_records():
        if (record.record_type is LogRecordType.COMMIT
                and record.txn_id == txn_id):
            return CommittedOp(record.lsn, key, value)
    return None


def enumerate_boundaries(policy_name: str, seed: int,
                         config: MatrixConfig) -> list[Boundary]:
    """Discover every boundary the reference workload crosses."""
    engine, _ = build_case_engine(policy_name, config)
    probe = BoundaryProbe().install(engine)
    try:
        run_reference_workload(engine, seed, config)
    finally:
        probe.uninstall()
    return probe.boundaries()


# ----------------------------------------------------------------------
# One replayable case
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CrashCase:
    """One picklable matrix cell: crash *here*, with *this* hazard."""

    policy: str
    seed: int
    boundary: Boundary
    tail_fault: str = TailFault.NONE.value
    config: MatrixConfig = field(default_factory=MatrixConfig)
    #: Optional live-fault plan seed; 0 disables live faults.  Live
    #: transient errors are absorbed by the devio retry layer, so the
    #: boundary stream (events + WAL appends) is unchanged by them.
    fault_seed: int = 0
    read_error_rate: float = 0.0
    write_error_rate: float = 0.0

    @property
    def case_id(self) -> str:
        suffix = "" if self.tail_fault == "none" else f"+{self.tail_fault}"
        return (f"{self.policy}/seed{self.seed}/"
                f"{self.boundary.label}{suffix}")

    def live_plan(self) -> FaultPlan | None:
        if not (self.read_error_rate or self.write_error_rate):
            return None
        return FaultPlan.seeded(
            self.fault_seed or self.seed,
            read_error_rate=self.read_error_rate,
            write_error_rate=self.write_error_rate,
        )


def run_crash_case(case: CrashCase) -> dict:
    """Replay one case: crash, recover, check invariants.  Picklable."""
    from ..bench.executor import current_options

    channel = current_options().telemetry
    if channel is not None:
        channel.emit("case_start", case=case.case_id)
    engine, handle = build_case_engine(case.policy, case.config,
                                       plan=case.live_plan())
    controller = CrashController.for_engine(engine, handle=handle)
    controller.track_page_writes()
    probe = BoundaryProbe(armed=case.boundary).install(engine)
    try:
        ops, crashed, pending = run_reference_workload(
            engine, case.seed, case.config)
    finally:
        probe.uninstall()
    report = controller.crash(TailFault(case.tail_fault))
    recovery = RecoveryManager(engine.bm, engine.log).recover()
    # A crash can land after the in-flight op's commit record became
    # durable but before the client was acknowledged; the transaction is
    # then committed and recovery keeps it — fold it into the expected
    # state too.
    unacked = pending_commit_op(engine, recovery.winners, pending)
    if unacked is not None:
        ops.append(unacked)
    invariants = check_post_recovery(
        engine, "t", ops, report.durable_lsn,
        all_keys=range(case.config.keys),
    )
    result = {
        "case": case.case_id,
        "policy": case.policy,
        "seed": case.seed,
        "boundary": case.boundary.label,
        "tail_fault": case.tail_fault,
        "crashed_at_boundary": crashed,
        "committed_ops": len(ops),
        "durable_lsn": report.durable_lsn,
        "lost_volatile_records": report.lost_volatile_records,
        "tail_lsn": report.tail_lsn,
        "torn_page_id": report.torn_page_id,
        "torn_records_dropped": engine.log.stats.torn_records_dropped,
        "torn_pages_healed": recovery.torn_pages_healed,
        "recovery": {
            "winners": len(recovery.winners),
            "losers": len(recovery.losers),
            "redo_applied": recovery.redo_applied,
            "undo_applied": recovery.undo_applied,
            "clrs_written": recovery.clrs_written,
        },
        "invariants": invariants.as_dict(),
        "ok": invariants.ok,
    }
    if handle is not None:
        result["faults"] = {
            "injected": handle.faults_injected(),
            "retries": handle.retries(),
            "torn_detected": handle.torn_writes_detected,
        }
    if channel is not None:
        channel.emit("case_end", case=case.case_id, ok=invariants.ok)
    return result


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------
def _case_weight(case: CrashCase) -> float:
    """Expected relative cost of one case, for the executor's scheduler.

    A case crashing at the ``k``-th occurrence of its boundary kind
    replays more of the workload the larger ``k`` is (plus recovery
    over a longer WAL), so late-ordinal cases are the stragglers — the
    chunk planner schedules them first.
    """
    return 1.0 + case.boundary.ordinal


def build_cases(policies, seeds, config: MatrixConfig,
                with_tail_faults: bool = True,
                read_error_rate: float = 0.0,
                write_error_rate: float = 0.0) -> list[CrashCase]:
    """Enumerate boundaries per (policy, seed) and expand into cases.

    Every discovered boundary gets a clean-crash case.  With
    ``with_tail_faults``, the WAL tail hazards (torn write / dropped
    persist) are additionally applied at the middle and last WAL-append
    boundaries, and a torn page at the last write-back/flush boundary —
    the points where those hazards are physically possible.
    """
    cases: list[CrashCase] = []
    for policy in policies:
        for seed in seeds:
            boundaries = enumerate_boundaries(policy, seed, config)
            common = dict(policy=policy, seed=seed, config=config,
                          read_error_rate=read_error_rate,
                          write_error_rate=write_error_rate)
            for boundary in boundaries:
                cases.append(CrashCase(boundary=boundary, **common))
            if not with_tail_faults:
                continue
            wal = [b for b in boundaries if b.kind == WAL_APPEND]
            targets = []
            if wal:
                targets = [wal[len(wal) // 2]]
                if wal[-1] != targets[0]:
                    targets.append(wal[-1])
            for target in targets:
                for fault in (TailFault.TORN_WRITE,
                              TailFault.DROPPED_PERSIST):
                    cases.append(CrashCase(boundary=target,
                                           tail_fault=fault.value,
                                           **common))
            writes = [b for b in boundaries
                      if b.kind in ("write_back", "flush")]
            if writes:
                cases.append(CrashCase(boundary=writes[-1],
                                       tail_fault=TailFault.TORN_PAGE.value,
                                       **common))
    return cases


def run_crash_matrix(policies=("DRAM_SSD", "SPITFIRE_LAZY",
                               "SPITFIRE_EAGER"),
                     seeds=(1, 7, 23),
                     config: MatrixConfig | None = None,
                     jobs: int = 1,
                     with_tail_faults: bool = True,
                     read_error_rate: float = 0.0,
                     write_error_rate: float = 0.0) -> dict:
    """Run the full crash-point matrix; returns a JSON-able report.

    Results arrive in submission order from the executor's generic task
    pool, so the report is byte-identical for any ``jobs`` value.
    """
    from ..bench.executor import run_tasks

    config = config or MatrixConfig()
    cases = build_cases(policies, seeds, config,
                        with_tail_faults=with_tail_faults,
                        read_error_rate=read_error_rate,
                        write_error_rate=write_error_rate)
    results = run_tasks(run_crash_case, cases, jobs=jobs,
                        weigh=_case_weight)
    failures = [r["case"] for r in results if not r["ok"]]
    boundary_kinds: dict[str, int] = {}
    for case in cases:
        boundary_kinds[case.boundary.kind] = (
            boundary_kinds.get(case.boundary.kind, 0) + 1
        )
    return {
        "policies": list(policies),
        "seeds": list(seeds),
        "total_cases": len(cases),
        "boundary_kinds": dict(sorted(boundary_kinds.items())),
        "failures": failures,
        "ok": not failures,
        "cases": results,
    }


def render_matrix_json(report: dict) -> str:
    """Canonical JSON rendering (sorted keys, stable separators)."""
    return json.dumps(report, indent=2, sort_keys=True)
