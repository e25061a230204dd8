"""Simulated-annealing search over migration policies (§4 of the paper).

Spitfire adapts its policy ``P = <D_r, D_w, N_r, N_w>`` at runtime by
minimising ``cost_T(P) = 1/T`` where ``T`` is the throughput observed
while running ``P`` for one tuning epoch.  The search is classic
simulated annealing (Kirkpatrick et al. [21]): a neighbouring policy is
proposed each epoch; improvements are always accepted, regressions are
accepted with probability ``exp(-Δcost/t)``; the temperature ``t`` cools
geometrically from 800 to 0.00008 by a factor α = 0.9 per epoch (§6.4).
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

from ..core.policy import MigrationPolicy

#: The discrete probability levels the experiments sweep; annealing moves
#: between adjacent levels, which matches the paper's policy grid.
PROBABILITY_LEVELS = (0.0, 0.01, 0.1, 0.2, 0.5, 1.0)

#: §6.4's cooling schedule: initial and final temperature, cooling factor.
INITIAL_TEMPERATURE = 800.0
FINAL_TEMPERATURE = 8e-5
ALPHA = 0.9


def temperature(step: int) -> float:
    """Temperature at tuning step ``step`` (clamped at the floor)."""
    return max(FINAL_TEMPERATURE, INITIAL_TEMPERATURE * ALPHA**step)


def throughput_cost(throughput: float) -> float:
    """The paper's cost function ``cost_T(P) = 1/T``."""
    if throughput <= 0:
        return float("inf")
    return 1.0 / throughput


class PolicyAnnealer:
    """Simulated-annealing state machine over migration policies.

    Drive it epoch by epoch::

        candidate = annealer.propose()
        ...run one epoch under ``candidate``, measure throughput...
        annealer.observe(candidate, throughput)

    Proposals move D_r/D_w together or N_r/N_w together, one level of
    :data:`PROBABILITY_LEVELS`, mirroring the paper's lockstep sweeps.
    :attr:`best_policy` tracks the lowest-cost policy seen so far.
    """

    def __init__(self, initial_policy: MigrationPolicy, seed: int = 7) -> None:
        self.rng = random.Random(seed)
        self.step = 0
        self.current_policy = initial_policy
        self.current_cost = float("inf")
        self.best_policy = initial_policy
        self.best_cost = float("inf")

    # ------------------------------------------------------------------
    @property
    def temperature(self) -> float:
        return temperature(self.step)

    def _perturb(self, value: float) -> float:
        """Move one step up or down the level grid."""
        index = min(range(len(PROBABILITY_LEVELS)),
                    key=lambda i: abs(PROBABILITY_LEVELS[i] - value))
        if index == 0:
            index += 1
        elif index == len(PROBABILITY_LEVELS) - 1:
            index -= 1
        else:
            index += self.rng.choice((-1, 1))
        return PROBABILITY_LEVELS[index]

    def propose(self) -> MigrationPolicy:
        """A neighbouring candidate policy for the next epoch."""
        policy = self.current_policy
        if self.rng.choice(("d", "n")) == "d":
            new_d = self._perturb(policy.d_r)
            return replace(policy, d_r=new_d, d_w=new_d, name="")
        new_n = self._perturb(policy.n_r)
        return replace(policy, n_r=new_n, n_w=new_n, name="")

    def observe(self, candidate: MigrationPolicy, throughput: float) -> bool:
        """Record the epoch's measurement; return True when accepted."""
        cost = throughput_cost(throughput)
        accepted = self._accept(cost)
        if accepted:
            self.current_policy = candidate
            self.current_cost = cost
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_policy = candidate
        self.step += 1
        return accepted

    def _accept(self, cost: float) -> bool:
        if cost <= self.current_cost:
            return True
        if math.isinf(cost):
            return False
        # Costs are tiny (1/throughput); scale the delta into the
        # temperature's range so early steps genuinely explore.
        delta = (cost - self.current_cost) / max(self.current_cost, 1e-30)
        # Normalise temperature to [0, 1] of its initial value.
        t_norm = self.temperature / INITIAL_TEMPERATURE
        return self.rng.random() < math.exp(-delta / t_norm)
