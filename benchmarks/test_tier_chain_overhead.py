"""TierChain refactor parity: the chain walk adds zero accounting drift.

The N-tier decomposition of the buffer manager must be invisible to the
paper's measurements: the same RNG draw sequence, the same counter
increments, the same simulated device traffic.  This test regenerates
the two policy-sweep figures most sensitive to fetch-path accounting
(Fig. 6's D sweep and Fig. 7's N sweep) and demands *bit-identical*
throughput numbers against the archived pre-refactor results — not
approximate equality, exact float equality.  Any extra RNG draw, any
re-ordered Bernoulli decision, any double-charged transfer shifts these
numbers and fails the comparison.
"""

from __future__ import annotations

import json

from conftest import RESULTS_DIR

from repro.bench.experiments import REGISTRY


def _assert_matches_archive(result, figure: str) -> None:
    with open(RESULTS_DIR / f"{figure}.json") as handle:
        archived = json.load(handle)
    fresh = result.to_dict()
    assert fresh["experiment_id"] == archived["experiment_id"]
    assert set(fresh["series"]) == set(archived["series"]), figure
    for label, points in archived["series"].items():
        fresh_points = fresh["series"][label]
        assert len(fresh_points) == len(points), f"{figure} {label}"
        for (x_old, y_old), (x_new, y_new) in zip(points, fresh_points):
            assert x_new == x_old, f"{figure} {label} x-axis"
            # Exact equality on purpose: the refactor claims identical
            # cost accounting, so the simulated throughput must be the
            # same float, not merely a close one.
            assert y_new == y_old, (
                f"{figure} {label} @ {x_old}: {y_new!r} != archived {y_old!r}"
            )


def test_fig6_bit_identical_to_archive():
    _assert_matches_archive(REGISTRY["fig6"](quick=True), "fig6")


def test_fig7_bit_identical_to_archive():
    _assert_matches_archive(REGISTRY["fig7"](quick=True), "fig7")
