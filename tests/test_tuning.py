"""Simulated annealing and the adaptive controller (§4, §6.4)."""

from operator import attrgetter

import pytest

from repro.bench.harness import RunConfig, WorkloadRunner
from repro.core.buffer_manager import BufferManager
from repro.core.policy import SPITFIRE_EAGER
from repro.hardware.cost_model import StorageHierarchy
from repro.hardware.pricing import HierarchyShape
from repro.hardware.specs import SimulationScale
from repro.tuning import annealing
from repro.tuning.annealing import (
    PROBABILITY_LEVELS,
    PolicyAnnealer,
    temperature,
    throughput_cost,
)
from repro.tuning.controller import AdaptiveController
from repro.workloads.ycsb import YCSB_BA, YCSB_RO, YcsbWorkload

#: A policy's four probabilities, without its name.
knobs = attrgetter("d_r", "d_w", "n_r", "n_w")


class TestCostFunction:
    def test_inverse_throughput(self):
        assert throughput_cost(100.0) == pytest.approx(0.01)

    def test_zero_throughput_is_infinite_cost(self):
        assert throughput_cost(0.0) == float("inf")


class TestSchedule:
    def test_paper_defaults(self):
        assert annealing.INITIAL_TEMPERATURE == 800.0
        assert annealing.FINAL_TEMPERATURE == pytest.approx(8e-5)
        assert annealing.ALPHA == 0.9

    def test_geometric_cooling(self):
        assert temperature(0) == 800.0
        assert temperature(1) == pytest.approx(720.0)
        assert temperature(10) == pytest.approx(800.0 * 0.9**10)

    def test_floor(self):
        assert temperature(10_000) == annealing.FINAL_TEMPERATURE


class TestAnnealer:
    def test_proposals_stay_on_level_grid(self):
        annealer = PolicyAnnealer(SPITFIRE_EAGER, seed=1)
        for _ in range(50):
            candidate = annealer.propose()
            for value in knobs(candidate):
                assert value in PROBABILITY_LEVELS

    def test_lockstep_proposals(self):
        annealer = PolicyAnnealer(SPITFIRE_EAGER, seed=1)
        for _ in range(30):
            candidate = annealer.propose()
            assert candidate.d_r == candidate.d_w
            assert candidate.n_r == candidate.n_w

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
        annealer = PolicyAnnealer(SPITFIRE_EAGER, seed=1)
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


class TestController:
    def make_controller(self, mix=YCSB_RO):
        hierarchy = StorageHierarchy(
            HierarchyShape(1, 4, 100), SimulationScale(pages_per_gb=8)
        )
        bm = BufferManager(hierarchy, SPITFIRE_EAGER)
        workload = YcsbWorkload(600, mix=mix, skew=0.5, seed=2)
        runner = WorkloadRunner(bm, RunConfig(warmup_ops=0, measure_ops=0))
        runner.allocate_database(workload.num_pages)
        controller = AdaptiveController(bm, seed=4)
        return controller, runner, workload

    @staticmethod
    def batched(runner, workload):
        return lambda count: runner.run_ycsb_batch(workload, count)

    @staticmethod
    def per_op(runner, workload):
        def run(count):
            for _ in range(count):
                runner.run_ycsb_op(workload)
        return run

    def test_epoch_lifecycle(self):
        controller, runner, workload = self.make_controller()
        ran = []

        def run_ops(count):
            ran.append((count, controller.bm.policy))
            runner.run_ycsb_batch(workload, count)

        record = controller.run_epoch(run_ops, 200)
        assert ran == [(200, SPITFIRE_EAGER)]
        assert record.operations == 200
        assert record.throughput > 0
        assert controller.records == [record]

    def test_first_epoch_measures_initial_policy(self):
        controller, runner, workload = self.make_controller()
        record = controller.run_epoch(self.batched(runner, workload), 100)
        assert record.policy is SPITFIRE_EAGER

    def test_run_loop_adapts_policy(self):
        controller, runner, workload = self.make_controller()
        controller.run(self.batched(runner, workload), epochs=15,
                       ops_per_epoch=400)
        assert len(controller.records) == 15
        series = controller.throughput_series()
        assert len(series) == 15
        # The eager start must not be the best policy found: the
        # annealer explores lazier settings on this hierarchy.
        assert knobs(controller.best_policy) != knobs(SPITFIRE_EAGER)

    def test_records_carry_temperature(self):
        controller, runner, workload = self.make_controller()
        controller.run(self.batched(runner, workload), epochs=3,
                       ops_per_epoch=100)
        temps = [r.temperature for r in controller.records]
        assert temps[0] > temps[-1]

    @pytest.mark.parametrize("mix", [YCSB_RO, YCSB_BA], ids=lambda m: m.name)
    def test_batched_epochs_match_per_op(self, mix):
        """A Fig. 10-style run: epochs that step ``run_ycsb_op`` and
        epochs that call ``run_ycsb_batch`` give equal records, the
        same best policy and the same simulated cost."""
        outcomes = []
        for drive in (self.per_op, self.batched):
            controller, runner, workload = self.make_controller(mix)
            records = controller.run(drive(runner, workload), epochs=12,
                                     ops_per_epoch=300)
            outcomes.append((records, controller.best_policy,
                             controller.bm.hierarchy.cost.total_fp,
                             controller.bm.stats.snapshot()))
        (per_op, batched) = outcomes
        assert len({knobs(record.policy) for record in per_op[0]}) > 1
        assert batched == per_op
