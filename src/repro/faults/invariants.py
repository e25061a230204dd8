"""Post-recovery ACID invariant checks.

Every crash-point replay (and any test) funnels through
:func:`check_post_recovery`, which runs the full catalogue against a
recovered engine:

* **durable-commit completeness** — every transaction whose commit
  record survived the crash (commit LSN ≤ the verified durable LSN) is
  fully present in the durable state,
* **no loser leakage** — no key carries a value from a transaction that
  did not durably commit: the durable state equals *exactly* the fold
  of durably-committed operations, so a stolen-but-unwound write or a
  truncated-tail commit showing through is a violation,
* **mapping-table consistency** — every mapping-table copy is resident
  in its tier's pool (and vice versa), points at the right page, and
  refers to a page that exists in the SSD store,
* **recovery idempotence** — a second recovery pass redoes nothing,
  undoes nothing, and leaves the durable state bit-identical.

Checks accumulate :class:`InvariantViolation` records instead of
raising, so one replay can report every broken invariant at once; the
chaos CLI serialises reports straight into its JSON output, and tests
assert ``report.ok``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "CommittedOp",
    "InvariantReport",
    "InvariantViolation",
    "check_durable_state",
    "check_mapping_consistency",
    "check_recovery_idempotence",
    "check_post_recovery",
    "expected_durable_state",
]


@dataclass(frozen=True)
class CommittedOp:
    """One committed workload operation and the LSN that made it durable."""

    commit_lsn: int
    key: object
    value: bytes


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, with enough detail to reproduce."""

    invariant: str
    detail: str

    def as_dict(self) -> dict:
        return {"invariant": self.invariant, "detail": self.detail}


@dataclass
class InvariantReport:
    """The outcome of one invariant sweep."""

    checks_run: list[str] = field(default_factory=list)
    violations: list[InvariantViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, invariant: str, detail: str) -> None:
        self.violations.append(InvariantViolation(invariant, detail))

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checks_run": list(self.checks_run),
            "violations": [v.as_dict() for v in self.violations],
        }

    def raise_if_failed(self) -> None:
        if not self.ok:
            lines = "\n".join(
                f"  [{v.invariant}] {v.detail}" for v in self.violations
            )
            raise AssertionError(f"invariant violations:\n{lines}")


# ----------------------------------------------------------------------
def expected_durable_state(ops: Iterable[CommittedOp],
                           durable_lsn: int) -> dict:
    """Fold the durably-committed operations into a key → value map.

    An operation counts exactly when its commit record's LSN is within
    the post-crash verified durable prefix of the log — commits lost to
    a torn tail or a dropped persist fall out naturally.
    """
    state: dict = {}
    for op in ops:
        if op.commit_lsn <= durable_lsn:
            state[op.key] = op.value
    return state


def check_durable_state(engine, table_name: str, ops, durable_lsn: int,
                        all_keys: Iterable = (),
                        report: InvariantReport | None = None,
                        ) -> InvariantReport:
    """Durable-commit completeness + no-loser-leakage, in one sweep.

    The recovered durable state must equal *exactly* the fold of
    durably-committed operations over ``expected ∪ all_keys``: a
    missing/stale value breaks completeness, any other value is loser
    leakage (an uncommitted or torn-away write showing through).
    """
    report = report if report is not None else InvariantReport()
    report.checks_run.append("durable_commits_present")
    report.checks_run.append("no_loser_leakage")
    expected = expected_durable_state(ops, durable_lsn)
    keys = set(expected) | set(all_keys)
    for key in sorted(keys, key=repr):
        want = expected.get(key)
        got = engine.committed_value(table_name, key)
        if got == want:
            continue
        if want is None:
            report.add(
                "no_loser_leakage",
                f"key {key!r} has durable value {got!r} but no transaction "
                f"touching it committed within durable LSN {durable_lsn}",
            )
        elif got is None:
            report.add(
                "durable_commits_present",
                f"key {key!r} lost its durably committed value "
                f"(commit ≤ LSN {durable_lsn}): expected {want!r}",
            )
        else:
            report.add(
                "no_loser_leakage",
                f"key {key!r}: durable value {got!r} != last durably "
                f"committed {want!r} (durable LSN {durable_lsn})",
            )
    return report


def check_mapping_consistency(bm, report: InvariantReport | None = None,
                              ) -> InvariantReport:
    """Mapping-table pointers vs. pool frames vs. SSD store, both
    directions.  Read-only: frames are scanned and pointers followed,
    so a sweep leaves every replacer exactly as it found it."""
    report = report if report is not None else InvariantReport()
    report.checks_run.append("mapping_table_consistent")
    framed = {
        node.tier: {d.frame_index: d for d in node.pool.descriptors()}
        for node in bm.chain
    }
    for shared in bm.table:
        for tier in shared.resident_tiers:
            descriptor = shared.copy_on(tier)
            if tier not in framed:
                report.add(
                    "mapping_table_consistent",
                    f"page {shared.page_id} maps a copy on {tier.name}, "
                    f"but the chain has no such tier",
                )
                continue
            if framed[tier].get(descriptor.frame_index) is not descriptor:
                report.add(
                    "mapping_table_consistent",
                    f"page {shared.page_id} on {tier.name}: mapping-table "
                    f"descriptor is not the pool-resident one",
                )
            if descriptor.page_id != shared.page_id:
                report.add(
                    "mapping_table_consistent",
                    f"descriptor on {tier.name} claims page "
                    f"{descriptor.page_id}, mapped under {shared.page_id}",
                )
        if not bm.store.exists(shared.page_id):
            report.add(
                "mapping_table_consistent",
                f"page {shared.page_id} is buffered but absent from the "
                f"SSD store",
            )
    for tier, frames in framed.items():
        for descriptor in frames.values():
            shared = bm.table.get(descriptor.page_id)
            if shared is None or shared.copy_on(tier) is not descriptor:
                report.add(
                    "mapping_table_consistent",
                    f"page {descriptor.page_id} resident on {tier.name} has "
                    f"no mapping-table entry for that tier",
                )
    return report


def check_recovery_idempotence(engine, table_name: str, keys: Iterable,
                               report: InvariantReport | None = None,
                               ) -> InvariantReport:
    """A second recovery pass must be a strict no-op."""
    from ..wal.recovery import RecoveryManager

    report = report if report is not None else InvariantReport()
    report.checks_run.append("recovery_idempotent")
    keys = list(keys)
    before = {k: engine.committed_value(table_name, k) for k in keys}
    second = RecoveryManager(engine.bm, engine.log).recover()
    if second.redo_applied:
        report.add(
            "recovery_idempotent",
            f"second recovery pass redid {second.redo_applied} record(s)",
        )
    if second.undo_applied:
        report.add(
            "recovery_idempotent",
            f"second recovery pass undid {second.undo_applied} record(s)",
        )
    after = {k: engine.committed_value(table_name, k) for k in keys}
    if after != before:
        changed = sorted(
            (repr(k) for k in keys if before[k] != after[k])
        )
        report.add(
            "recovery_idempotent",
            f"durable state changed across the second recovery pass for "
            f"key(s) {', '.join(changed)}",
        )
    return report


def check_post_recovery(engine, table_name: str, ops, durable_lsn: int,
                        all_keys: Iterable = ()) -> InvariantReport:
    """Run the full catalogue against a freshly recovered engine."""
    report = InvariantReport()
    ops = list(ops)
    keys = set(o.key for o in ops) | set(all_keys)
    check_durable_state(engine, table_name, ops, durable_lsn,
                        all_keys=keys, report=report)
    check_mapping_consistency(engine.bm, report=report)
    check_recovery_idempotence(engine, table_name, sorted(keys, key=repr),
                               report=report)
    # Idempotence re-ran recovery; durable state must still match.
    check_durable_state(engine, table_name, ops, durable_lsn,
                        all_keys=keys, report=report)
    return report
