"""FaultyDevice + devio retry: charges, typed errors, determinism.

The contract under test: transient device errors are absorbed by the
bounded retry-with-backoff in :mod:`repro.core.devio`, every backoff
interval is charged as *simulated* time (never wall-clock), exhausted
budgets surface the typed :class:`DeviceGaveUpError`, and all fault /
retry counts are deterministic for a fixed plan — even multi-threaded.
"""

import threading

import pytest

from repro.bench.harness import RunConfig, WorkloadRunner
from repro.core.buffer_manager import BufferManager
from repro.core.devio import (
    BACKOFF_BASE_NS,
    MAX_ATTEMPTS,
    read_with_retry,
    write_with_retry,
)
from repro.faults.injector import FaultyDevice, inject_faults
from repro.faults.plan import (
    DeviceGaveUpError,
    DeviceIOError,
    FaultPlan,
    FaultSchedule,
)
from repro.hardware.cost_model import StorageHierarchy
from repro.core.policy import SPITFIRE_LAZY
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale, Tier
from repro.workloads.ycsb import YCSB_BA, YcsbWorkload

SCALE = SimulationScale(pages_per_gb=8)
NBYTES = 4096


def build_hierarchy():
    return StorageHierarchy(HierarchyShape(2.0, 8.0, 100.0), SCALE)


def plan_for_ssd(**schedule_kwargs):
    return FaultPlan(schedules={"ssd": FaultSchedule(**schedule_kwargs)})


def clean_read_cost():
    """Sim-time cost of one fault-free SSD read of NBYTES."""
    hierarchy = build_hierarchy()
    device = hierarchy.device(Tier.SSD)
    before = device.cost.total_ns
    device.read(NBYTES)
    return device.cost.total_ns - before


class TestTransientThenSuccess:
    def test_single_retry_charges_exactly_one_backoff(self):
        baseline = clean_read_cost()
        hierarchy = build_hierarchy()
        handle = inject_faults(
            hierarchy, plan_for_ssd(read_errors=frozenset({0})))
        device = hierarchy.device(Tier.SSD)
        before = device.cost.total_ns
        read_with_retry(device, NBYTES)
        delta = device.cost.total_ns - before
        # Attempt #1 (op index 0) errors before any media charge; the
        # backoff charges BACKOFF_BASE_NS; attempt #2 (index 1) pays
        # the normal media cost.  Nothing else.
        assert delta == pytest.approx(baseline + BACKOFF_BASE_NS)
        assert handle.faults_injected() == 1
        assert handle.retries() == 1

    def test_two_transients_charge_geometric_backoffs(self):
        baseline = clean_read_cost()
        hierarchy = build_hierarchy()
        handle = inject_faults(
            hierarchy, plan_for_ssd(read_errors=frozenset({0, 1})))
        device = hierarchy.device(Tier.SSD)
        before = device.cost.total_ns
        read_with_retry(device, NBYTES)
        delta = device.cost.total_ns - before
        assert delta == pytest.approx(baseline + BACKOFF_BASE_NS * (1 + 2))
        assert handle.retries() == 2

    def test_write_path_retries_too(self):
        hierarchy = build_hierarchy()
        handle = inject_faults(
            hierarchy, plan_for_ssd(write_errors=frozenset({0})))
        device = hierarchy.device(Tier.SSD)
        write_with_retry(device, NBYTES)
        assert handle.faults_injected() == 1
        assert handle.retries() == 1


class TestExhaustedRetries:
    def test_gave_up_error_is_typed_and_counts_attempts(self):
        hierarchy = build_hierarchy()
        errors = frozenset(range(MAX_ATTEMPTS))  # every attempt fails
        handle = inject_faults(hierarchy, plan_for_ssd(read_errors=errors))
        device = hierarchy.device(Tier.SSD)
        before = device.cost.total_ns
        with pytest.raises(DeviceGaveUpError) as excinfo:
            read_with_retry(device, NBYTES)
        assert excinfo.value.attempts == MAX_ATTEMPTS
        assert excinfo.value.tier_key == "ssd"
        # Three backoffs were charged (after failures 1..3); the final
        # failure raises without another backoff, and no media cost was
        # ever paid (the op never reached the device).
        charged = device.cost.total_ns - before
        assert charged == pytest.approx(BACKOFF_BASE_NS * (1 + 2 + 4))
        assert handle.faults_injected() == MAX_ATTEMPTS
        assert handle.retries() == MAX_ATTEMPTS - 1


class TestLatencySpikes:
    def test_spike_charges_sim_time_and_completes(self):
        baseline = clean_read_cost()
        spike_ns = 50_000.0
        hierarchy = build_hierarchy()
        handle = inject_faults(
            hierarchy,
            plan_for_ssd(read_spikes=frozenset({0}), spike_ns=spike_ns))
        device = hierarchy.device(Tier.SSD)
        before = device.cost.total_ns
        read_with_retry(device, NBYTES)
        delta = device.cost.total_ns - before
        assert delta == pytest.approx(baseline + spike_ns)
        assert handle.faults_injected() == 1
        assert handle.retries() == 0  # spikes complete; nothing retried


class TestActivityWindow:
    def test_faults_outside_window_do_not_fire(self):
        hierarchy = build_hierarchy()
        handle = inject_faults(
            hierarchy,
            plan_for_ssd(read_errors=frozenset(range(100)),
                         active_after_ns=1e18))
        device = hierarchy.device(Tier.SSD)
        read_with_retry(device, NBYTES)  # schedule armed far in the future
        assert handle.faults_injected() == 0

    def test_finite_window_opens_at_the_committed_total(self):
        # Reads 2 and 5 are scheduled to fail; the window opens after
        # three and a half reads' worth of simulated time.  Read 2 runs
        # below it and succeeds; read 5 runs past it and fails.
        per_read = clean_read_cost()
        hierarchy = build_hierarchy()
        handle = inject_faults(
            hierarchy,
            plan_for_ssd(read_errors=frozenset({2, 5}),
                         active_after_ns=3.5 * per_read))
        device = hierarchy.device(Tier.SSD)
        for index in range(5):
            device.read(NBYTES)
            assert handle.faults_injected() == 0, f"read {index} faulted"
        assert device.cost.total_ns > 3.5 * per_read
        with pytest.raises(DeviceIOError):
            device.read(NBYTES)
        assert handle.faults_injected() == 1

    def test_an_ops_own_charges_count_toward_the_window(self):
        # The lookup an access charges before its device read commits at
        # once, so a window opening inside the op is open for the read.
        hierarchy = build_hierarchy()
        lookup_ns = hierarchy.cpu_costs.lookup_ns
        handle = inject_faults(hierarchy, FaultPlan(schedules={
            "dram": FaultSchedule(read_errors=frozenset({0}),
                                  active_after_ns=lookup_ns / 2)}))
        bm = BufferManager(hierarchy, SPITFIRE_LAZY)
        page = bm.allocate_page()
        assert bm.prime_page(Tier.DRAM, page)
        hierarchy.reset_accounting()
        bm.read(page, 0, 64)
        assert handle.faults_injected() == 1
        assert handle.retries() == 1


class TestNoopDelegation:
    def test_unscheduled_device_charges_exactly_like_unwrapped(self):
        baseline = clean_read_cost()
        hierarchy = build_hierarchy()
        handle = inject_faults(hierarchy, FaultPlan.none())
        device = hierarchy.device(Tier.SSD)
        assert isinstance(device, FaultyDevice)
        before = device.cost.total_ns
        device.read(NBYTES)
        assert device.cost.total_ns - before == pytest.approx(baseline)
        assert handle.faults_injected() == 0

    def test_device_api_surface_is_delegated(self):
        hierarchy = build_hierarchy()
        inject_faults(hierarchy, FaultPlan.none())
        device = hierarchy.device(Tier.NVM)
        assert device.tier is Tier.NVM
        assert device.resource_key == "nvm"
        assert device.capacity_bytes == device.delegate.capacity_bytes
        assert device.capacity_pages(4096) == \
            device.delegate.capacity_pages(4096)
        device.persist_barrier()  # must not raise

    def test_noop_wrapped_cell_charges_like_the_bare_cell(self):
        """A seeded cell — misses, evictions, write-backs, WAL appends —
        run on no-op wrappers charges exactly what it charges bare."""
        def measure(wrapped: bool):
            hierarchy = build_hierarchy()
            if wrapped:
                inject_faults(hierarchy, FaultPlan.none())
            runner = WorkloadRunner(
                BufferManager(hierarchy, SPITFIRE_LAZY),
                RunConfig(warmup_ops=500, measure_ops=1_500))
            return runner.measure_ycsb(
                YcsbWorkload(2_000, mix=YCSB_BA, seed=3))

        bare, wrapped = measure(False), measure(True)
        assert bare.stats.ssd_fetches and bare.stats.writes
        assert wrapped.stats == bare.stats
        assert wrapped.resource_usage == bare.resource_usage
        assert wrapped.throughput == bare.throughput
        assert wrapped.makespan_ns == bare.makespan_ns

    def test_uninstall_restores_originals(self):
        hierarchy = build_hierarchy()
        original = hierarchy.device(Tier.SSD)
        handle = inject_faults(hierarchy, FaultPlan.none())
        assert hierarchy.device(Tier.SSD) is not original
        handle.uninstall()
        assert hierarchy.device(Tier.SSD) is original
        assert getattr(hierarchy, "fault_handle", None) is None


class TestMultiThreadedDeterminism:
    OPS_PER_THREAD = 50
    ERRORS = frozenset(range(0, 100, 7))

    def _run(self, threads):
        hierarchy = build_hierarchy()
        handle = inject_faults(
            hierarchy, plan_for_ssd(read_errors=self.ERRORS))
        device = hierarchy.device(Tier.SSD)

        def worker():
            for _ in range(self.OPS_PER_THREAD):
                read_with_retry(device, NBYTES)

        if threads == 1:
            for _ in range(4):
                worker()
        else:
            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join()
        return handle.faults_injected(), handle.retries()

    def test_fault_totals_independent_of_interleaving(self):
        """Op indices are allocated atomically, so the *number* of
        injected faults (and absorbed retries) for a fixed plan and op
        count is the same no matter how threads interleave."""
        single = self._run(threads=1)
        multi = self._run(threads=4)
        assert single == multi
        assert single[0] > 0  # the schedule actually fired
        assert single[0] == single[1]  # every transient was absorbed
