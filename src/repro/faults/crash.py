"""The single crash semantics: :class:`CrashController`.

Before this module, three ad-hoc hooks each dropped a slice of volatile
state: ``BufferManager.simulate_crash`` (volatile pools + mapping
table), ``LogManager.simulate_crash`` (the DRAM group-commit batch),
and ``StorageEngine.simulate_crash`` (MVTO store + per-txn undo
chains).  The controller sequences all of them — plus the
crash-coupled hazards of a :class:`~repro.faults.plan.FaultPlan`
(torn WAL tail, dropped persist, torn page) — so engine tests and the
crash-point matrix share one crash, byte for byte.

:class:`SimulatedCrash` deliberately subclasses ``BaseException``: the
engine's ``execute`` retry loop catches ``Exception`` and rolls the
transaction back with CLRs, which is precisely what must *not* happen
when power fails mid-operation.  A ``BaseException`` unwinds through
the engine (releasing latches via ``finally`` blocks)
without writing a single abort record.
"""

from __future__ import annotations

from dataclasses import dataclass

from .plan import TailFault

__all__ = ["CrashController", "CrashReport", "SimulatedCrash"]


class SimulatedCrash(BaseException):
    """Raised by a crash trigger to halt the workload at a boundary.

    ``BaseException`` (not ``Exception``) so transactional retry/abort
    machinery cannot intercept it: a crash leaves in-flight work exactly
    where it stood.
    """

    def __init__(self, boundary=None) -> None:
        self.boundary = boundary
        super().__init__(f"simulated crash at {boundary!r}")


@dataclass
class CrashReport:
    """What one controlled crash did."""

    #: Volatile (group-commit batch) records lost with the crash.
    lost_volatile_records: int = 0
    #: Crash-coupled hazard applied to the WAL tail, if any.
    tail_fault: TailFault = TailFault.NONE
    #: LSN of the WAL record the tail fault hit (-1 when none).
    tail_lsn: int = -1
    #: Page whose last durable write was torn (-1 when none).
    torn_page_id: int = -1
    #: Highest LSN still durable *and valid* after the crash.
    durable_lsn: int = 0


class CrashController:
    """Unified crash semantics over an engine's buffer manager and WAL.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.engine.StorageEngine` whose volatile
        state the crash drops: its buffer manager's pools and mapping
        table, its log's group-commit batch, and its own runtime (MVTO
        store, undo chains).
    handle:
        Optional :class:`~repro.faults.injector.InjectionHandle`; when
        given, torn-write *detections* (checksum failures found by the
        recovery scan) are counted into its metrics registry, and the
        plan's ``wal_tail`` / ``torn_page_fraction`` become the default
        crash-coupled hazards.
    """

    def __init__(self, engine, handle=None) -> None:
        self.engine = engine
        self.bm = engine.bm
        self.log = engine.log
        self.handle = handle
        if handle is not None:
            # Checksum-detected torn records/pages found during the
            # recovery scan are counted into the injection metrics, and
            # page-write tracking switches on so TORN_PAGE can act.
            self.log.on_torn = handle.note_torn_detected
            self.bm.store.on_torn = handle.note_torn_detected
            self.bm.store.enable_checksums()

    def track_page_writes(self) -> None:
        """Enable SSD page-write checksums/shadows (needed by TORN_PAGE).

        Implied when an injection handle is attached; call explicitly
        before running the workload when crashing with
        ``TailFault.TORN_PAGE`` and no handle.
        """
        self.bm.store.enable_checksums()

    # ------------------------------------------------------------------
    def crash(self, tail_fault: TailFault | None = None,
              torn_page_fraction: float | None = None) -> CrashReport:
        """Crash now: apply crash-coupled hazards, drop volatile state.

        Sequence (each step is what the media would actually do):

        1. the in-flight durable tail takes the plan's hazard — a torn
           WAL record (persisted with an invalid checksum), a dropped
           persist (the record never reached media), or a torn page
           write (a prefix of the last written page's slots survive),
        2. volatile buffer pools and the DRAM mapping table vanish,
        3. the volatile group-commit batch vanishes,
        4. engine-level volatile runtime (MVTO versions, undo chains)
           vanishes.
        """
        plan = self.handle.plan if self.handle is not None else None
        if tail_fault is None:
            tail_fault = plan.wal_tail if plan is not None else TailFault.NONE
        if torn_page_fraction is None:
            torn_page_fraction = (
                plan.torn_page_fraction if plan is not None else 0.5
            )
        report = CrashReport(tail_fault=tail_fault)
        if tail_fault is TailFault.TORN_WRITE:
            torn = self.log.corrupt_tail()
            report.tail_lsn = torn.lsn if torn is not None else -1
        elif tail_fault is TailFault.DROPPED_PERSIST:
            dropped = self.log.drop_tail()
            report.tail_lsn = dropped.lsn if dropped is not None else -1
        elif tail_fault is TailFault.TORN_PAGE:
            report.torn_page_id = self.bm.store.tear_last_write(
                torn_page_fraction
            )
        self.bm.simulate_crash()
        report.lost_volatile_records = self.log.simulate_crash()
        self.engine.drop_volatile_runtime()
        report.durable_lsn = self.log.verified_durable_lsn()
        return report
