"""Crash-point matrix: reduced tier-1 runs, invariants, and determinism.

The full matrix (three policies x three seeds x every boundary, plus
tail-fault variants) runs in CI via ``repro-experiments chaos``.  Here a
reduced configuration keeps the same machinery honest inside tier-1:
boundary enumeration, crash-at-every-boundary replay, the invariant
catalogue, torn-page healing, jobs-count byte-determinism, and the
multi-copy coherence rule the matrix once caught.
"""

import pytest

from repro.core.buffer_manager import BufferManager, BufferManagerConfig
from repro.core.policy import MigrationPolicy, SPITFIRE_EAGER
from repro.faults.crashpoints import (
    Boundary,
    CrashCase,
    MatrixConfig,
    build_case_engine,
    build_cases,
    enumerate_boundaries,
    render_matrix_json,
    run_crash_case,
    run_crash_matrix,
)
from repro.faults.invariants import (
    CommittedOp,
    InvariantReport,
    check_mapping_consistency,
    expected_durable_state,
)
from repro.faults.plan import TailFault
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale, Tier

#: Half the default operations: enough to cross every boundary kind
#: while keeping the tier-1 wall-clock small.
REDUCED = MatrixConfig(operations=30, checkpoint_interval_ops=12)


# ----------------------------------------------------------------------
# Boundary enumeration
# ----------------------------------------------------------------------
class TestEnumeration:
    def test_boundaries_are_deterministic(self):
        first = enumerate_boundaries("SPITFIRE_LAZY", 1, REDUCED)
        second = enumerate_boundaries("SPITFIRE_LAZY", 1, REDUCED)
        assert first == second
        assert len(first) > 20

    @pytest.mark.parametrize("policy", ["DRAM_SSD", "SPITFIRE_LAZY",
                                        "SPITFIRE_EAGER"])
    def test_every_boundary_kind_appears(self, policy):
        """At the default (CI) sizing the reference workload must
        exercise the whole failure surface — evictions, write-backs
        (a real store write for torn pages), flushes, WAL appends."""
        kinds = {b.kind
                 for b in enumerate_boundaries(policy, 1, MatrixConfig())}
        assert {"wal_append", "evict", "flush", "write_back"} <= kinds

    def test_cases_expand_with_tail_faults(self):
        clean = build_cases(["DRAM_SSD"], (1,), REDUCED,
                            with_tail_faults=False)
        hazarded = build_cases(["DRAM_SSD"], (1,), REDUCED)
        assert len(hazarded) > len(clean)
        faults = {c.tail_fault for c in hazarded}
        assert {TailFault.TORN_WRITE.value, TailFault.DROPPED_PERSIST.value,
                TailFault.TORN_PAGE.value} <= faults

    def test_cases_are_picklable(self):
        import pickle

        cases = build_cases(["SPITFIRE_EAGER"], (1,), REDUCED)
        assert pickle.loads(pickle.dumps(cases[0])) == cases[0]


# ----------------------------------------------------------------------
# Reduced matrix runs (the tier-1 slice of the CI chaos job)
# ----------------------------------------------------------------------
class TestReducedMatrix:
    @pytest.mark.parametrize("policy", ["DRAM_SSD", "SPITFIRE_LAZY",
                                        "SPITFIRE_EAGER"])
    def test_all_invariants_hold(self, policy):
        report = run_crash_matrix(policies=(policy,), seeds=(1,),
                                  config=REDUCED)
        assert report["ok"], f"failures: {report['failures']}"
        assert report["total_cases"] > 30

    def test_torn_page_cases_heal(self):
        report = run_crash_matrix(policies=("DRAM_SSD",), seeds=(1,),
                                  config=REDUCED)
        torn = [c for c in report["cases"]
                if c["tail_fault"] == TailFault.TORN_PAGE.value]
        assert torn, "no torn-page case was generated"
        assert any(c["torn_page_id"] >= 0 for c in torn)
        assert all(c["ok"] for c in torn)

    def test_jobs_count_does_not_change_the_bytes(self):
        serial = run_crash_matrix(policies=("SPITFIRE_LAZY",), seeds=(1,),
                                  config=REDUCED, jobs=1,
                                  with_tail_faults=False)
        parallel = run_crash_matrix(policies=("SPITFIRE_LAZY",), seeds=(1,),
                                    config=REDUCED, jobs=2,
                                    with_tail_faults=False)
        assert render_matrix_json(serial) == render_matrix_json(parallel)

    def test_live_faults_are_absorbed(self):
        """Transient device errors during the workload must be invisible
        to crash consistency: the retry layer absorbs every one."""
        case = CrashCase(policy="SPITFIRE_LAZY", seed=1,
                         boundary=Boundary("wal_append", 40),
                         config=REDUCED,
                         read_error_rate=0.02, write_error_rate=0.02)
        result = run_crash_case(case)
        assert result["ok"], result["invariants"]
        assert result["faults"]["injected"] > 0
        assert result["faults"]["injected"] == result["faults"]["retries"]


# ----------------------------------------------------------------------
# Invariant plumbing
# ----------------------------------------------------------------------
class TestInvariants:
    def test_expected_state_folds_by_commit_lsn(self):
        ops = [CommittedOp(5, 1, b"a"), CommittedOp(9, 1, b"b"),
               CommittedOp(12, 2, b"c")]
        assert expected_durable_state(ops, durable_lsn=10) == {1: b"b"}
        assert expected_durable_state(ops, durable_lsn=12) == {1: b"b",
                                                               2: b"c"}

    def test_report_collects_violations(self):
        report = InvariantReport()
        report.checks_run.append("demo_check")
        assert report.ok
        report.add("demo_check", "broken")
        assert not report.ok
        assert report.as_dict()["violations"] == [
            {"invariant": "demo_check", "detail": "broken"}]
        with pytest.raises(AssertionError, match="demo_check"):
            report.raise_if_failed()

    @pytest.mark.parametrize("replacement", ["clock", "lru"])
    def test_mapping_sweep_leaves_replacement_state_alone(self, replacement):
        # The sweep used to look pages up with a call that counted as an
        # access, so a served ``crash`` op or a chaos case handed the
        # next operation a pool with every reference bit set.
        hierarchy = StorageHierarchy(
            HierarchyShape(1.0, 2.0, 100.0), SimulationScale(pages_per_gb=4)
        )
        bm = BufferManager(hierarchy, SPITFIRE_EAGER,
                           BufferManagerConfig(seed=1, replacement=replacement))
        for page_id in range(24):
            bm.allocate_page(page_id)
        for step in range(150):  # hits, misses and DRAM sweeps
            bm.read((step * step) % 24, 0, 64)

        def state(replacer):
            if replacement == "lru":
                return list(replacer._order)
            return replacer._hand, bytes(replacer._ref_bits)

        before = [state(node.pool.replacer) for node in bm.chain]
        if replacement == "clock":  # a touch must have something to set
            assert any(0 in bits for _, bits in before)
        check_mapping_consistency(bm).raise_if_failed()
        assert [state(node.pool.replacer) for node in bm.chain] == before

    def test_case_engine_shapes_follow_policy(self):
        engine, handle = build_case_engine("DRAM_SSD", REDUCED)
        assert handle is None
        assert not engine.bm.hierarchy.has_tier(Tier.NVM)
        engine, _ = build_case_engine("SPITFIRE_EAGER", REDUCED)
        assert engine.bm.hierarchy.has_tier(Tier.NVM)


# ----------------------------------------------------------------------
# The coherence rule the matrix caught: a dirty victim bypassing a
# buffered lower copy must invalidate it (it never saw the write).
# ----------------------------------------------------------------------
class TestStaleLowerCopyInvalidation:
    def test_dirty_writeback_invalidates_stale_nvm_copy(self):
        hierarchy = StorageHierarchy(
            HierarchyShape(1.0, 2.0, 100.0), SimulationScale(pages_per_gb=4)
        )
        bm = BufferManager(hierarchy, SPITFIRE_EAGER,
                           BufferManagerConfig(seed=1))
        for page_id in range(12):
            bm.allocate_page(page_id)
        # Eager policy: reading page 0 installs an NVM copy on the way up.
        bm.read(0, 0, 64)
        shared = bm.table.get(0)
        assert shared.copy_on(Tier.NVM) is not None
        # Dirty the DRAM copy; the NVM copy goes stale the moment the
        # write lands above it.
        descriptor = bm.fetch_page(0, for_write=True)
        try:
            descriptor.content.write_record(0, b"fresh")
        finally:
            bm.release_page(descriptor)
        # Forbid downward admission, then evict the dirty page: the
        # write-back must go straight to the store AND drop the stale
        # NVM copy rather than leave it mapped.
        bm.set_policy(MigrationPolicy(0.0, 0.0, 0.0, 0.0))
        node = bm.chain.node(Tier.DRAM)
        victim = shared.copy_on(Tier.DRAM)
        bm.space.evict_from_node(node, victim)
        assert shared.copy_on(Tier.DRAM) is None
        assert shared.copy_on(Tier.NVM) is None, (
            "stale NVM copy survived a bypassing dirty write-back"
        )
        # Any future read materialises the fresh store copy.
        descriptor = bm.fetch_page(0)
        try:
            assert descriptor.content.read_record(0) == b"fresh"
        finally:
            bm.release_page(descriptor)
