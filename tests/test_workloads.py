"""The canonical sweep cell runs bare and still returns the exact values
of a metrics-on run of the same cell."""

import pytest

from repro.consensus import AdsConsensus
from repro.runtime import RandomScheduler
from repro.workloads import make_sweep_runner

SEEDS = (0, 7, 123)


@pytest.mark.parametrize("n", range(2, 7))
def test_sweep_cell_matches_a_metrics_on_run(n):
    steps = make_sweep_runner("ads", "random", "steps", 50_000_000)
    rounds = make_sweep_runner("ads", "random", "rounds", 50_000_000)
    for seed in SEEDS:
        reference = AdsConsensus().run(
            [(seed + i) % 2 for i in range(n)],
            scheduler=RandomScheduler(seed=seed),
            seed=seed,
            max_steps=50_000_000,
        )
        assert reference.metrics is not None and reference.audit is not None
        assert steps(n, seed) == float(reference.total_steps)
        assert rounds(n, seed) == float(reference.max_rounds())
