"""Simulated annealing and the adaptive controller (§4, §6.4)."""

import pytest

from repro.bench.harness import RunConfig, WorkloadRunner
from repro.core.buffer_manager import BufferManager
from repro.core.policy import SPITFIRE_EAGER
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale
from repro.tuning.annealing import (
    PROBABILITY_LEVELS,
    AnnealingSchedule,
    PolicyAnnealer,
    throughput_cost,
)
from repro.tuning.controller import AdaptiveController
from repro.workloads.ycsb import YCSB_RO, YcsbWorkload


class TestCostFunction:
    def test_inverse_throughput(self):
        assert throughput_cost(100.0) == pytest.approx(0.01)

    def test_zero_throughput_is_infinite_cost(self):
        assert throughput_cost(0.0) == float("inf")


class TestSchedule:
    def test_paper_defaults(self):
        schedule = AnnealingSchedule()
        assert schedule.initial_temperature == 800.0
        assert schedule.final_temperature == pytest.approx(8e-5)
        assert schedule.alpha == 0.9

    def test_geometric_cooling(self):
        schedule = AnnealingSchedule()
        assert schedule.temperature(0) == 800.0
        assert schedule.temperature(1) == pytest.approx(720.0)
        assert schedule.temperature(10) == pytest.approx(800.0 * 0.9**10)

    def test_floor(self):
        schedule = AnnealingSchedule()
        assert schedule.temperature(10_000) == schedule.final_temperature

    def test_steps_to_final(self):
        schedule = AnnealingSchedule()
        steps = schedule.steps_to_final
        assert schedule.temperature(steps) == schedule.final_temperature
        assert 800.0 * 0.9 ** (steps - 1) > schedule.final_temperature

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnealingSchedule(alpha=1.0)
        with pytest.raises(ValueError):
            AnnealingSchedule(initial_temperature=1.0, final_temperature=2.0)


class TestAnnealer:
    def test_proposals_stay_on_level_grid(self):
        annealer = PolicyAnnealer(SPITFIRE_EAGER, seed=1)
        for _ in range(50):
            candidate = annealer.propose()
            for value in candidate.as_tuple():
                assert value in PROBABILITY_LEVELS

    def test_lockstep_proposals(self):
        annealer = PolicyAnnealer(SPITFIRE_EAGER, seed=1, lockstep=True)
        for _ in range(30):
            candidate = annealer.propose()
            assert candidate.d_r == candidate.d_w
            assert candidate.n_r == candidate.n_w

    def test_independent_proposals_allowed(self):
        annealer = PolicyAnnealer(SPITFIRE_EAGER, seed=3, lockstep=False)
        candidates = [annealer.propose() for _ in range(100)]
        assert any(c.d_r != c.d_w or c.n_r != c.n_w for c in candidates)

    def test_improvement_always_accepted(self):
        annealer = PolicyAnnealer(SPITFIRE_EAGER, seed=1)
        annealer.observe(SPITFIRE_EAGER, throughput=100.0)
        better = annealer.propose()
        assert annealer.observe(better, throughput=200.0)
        assert annealer.current_policy is better

    def test_best_policy_tracks_minimum_cost(self):
        annealer = PolicyAnnealer(SPITFIRE_EAGER, seed=1)
        annealer.observe(SPITFIRE_EAGER, 100.0)
        good = annealer.propose()
        annealer.observe(good, 500.0)
        worse = annealer.propose()
        annealer.observe(worse, 50.0)
        assert annealer.best_policy is good

    def test_cold_annealer_rejects_regressions(self):
        schedule = AnnealingSchedule(initial_temperature=800.0,
                                     final_temperature=8e-5, alpha=0.5)
        annealer = PolicyAnnealer(SPITFIRE_EAGER, schedule=schedule, seed=1)
        annealer.step = 200  # fully cooled
        annealer.observe(SPITFIRE_EAGER, 100.0)
        annealer.step = 200
        rejected = 0
        for _ in range(20):
            candidate = annealer.propose()
            if not annealer.observe(candidate, 50.0):
                rejected += 1
            annealer.step = 200
        assert rejected == 20

    def test_hot_annealer_explores(self):
        annealer = PolicyAnnealer(SPITFIRE_EAGER, seed=5)
        annealer.observe(SPITFIRE_EAGER, 100.0)
        accepted_worse = 0
        for _ in range(30):
            candidate = annealer.propose()
            before = annealer.current_cost
            if annealer.observe(candidate, 95.0) and throughput_cost(95.0) > before:
                accepted_worse += 1
            # Keep temperature hot by resetting the step counter.
            annealer.step = 0
        assert accepted_worse > 0

    def test_level_validation(self):
        with pytest.raises(ValueError):
            PolicyAnnealer(SPITFIRE_EAGER, levels=(0.5, 0.1))


class TestController:
    def make_controller(self):
        hierarchy = StorageHierarchy(
            HierarchyShape(1, 4, 100), SimulationScale(pages_per_gb=8)
        )
        bm = BufferManager(hierarchy, SPITFIRE_EAGER)
        workload = YcsbWorkload(600, mix=YCSB_RO, skew=0.5, seed=2)
        runner = WorkloadRunner(bm, RunConfig(warmup_ops=0, measure_ops=0))
        runner.allocate_database(workload.num_pages)
        controller = AdaptiveController(bm, seed=4)
        return controller, runner, workload

    def test_epoch_lifecycle(self):
        controller, runner, workload = self.make_controller()
        policy = controller.begin_epoch()
        assert policy is controller.bm.policy
        for _ in range(200):
            runner.run_ycsb_op(workload)
        record = controller.end_epoch()
        assert record.operations == 200
        assert record.throughput > 0

    def test_first_epoch_measures_initial_policy(self):
        controller, runner, workload = self.make_controller()
        policy = controller.begin_epoch()
        assert policy is SPITFIRE_EAGER

    def test_unbalanced_calls_rejected(self):
        controller, _, _ = self.make_controller()
        with pytest.raises(RuntimeError):
            controller.end_epoch()
        controller.begin_epoch()
        with pytest.raises(RuntimeError):
            controller.begin_epoch()

    def test_run_loop_adapts_policy(self):
        controller, runner, workload = self.make_controller()
        controller.run(
            workload_step=lambda: runner.run_ycsb_op(workload),
            epochs=15,
            ops_per_epoch=400,
        )
        assert len(controller.records) == 15
        series = controller.throughput_series()
        assert len(series) == 15
        # The eager start must not be the best policy found: the
        # annealer explores lazier settings on this hierarchy.
        assert controller.best_policy.as_tuple() != SPITFIRE_EAGER.as_tuple()

    def test_records_carry_temperature(self):
        controller, runner, workload = self.make_controller()
        controller.run(lambda: runner.run_ycsb_op(workload), epochs=3,
                       ops_per_epoch=100)
        temps = [r.temperature for r in controller.records]
        assert temps[0] > temps[-1]
