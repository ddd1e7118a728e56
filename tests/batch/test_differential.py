"""Differential property: fused lanes against the generator runtime.

Sweep cells run as fused lanes by default, so every lane must either
reproduce a bare ``AdsConsensus().run(...)`` exactly or fall back — and
fall back exactly when the serial run could not be reproduced: the cell
is outside the fast path (n < 2) or the serial run exhausts its step
budget.  Hypothesis draws the process count, the binary input vector,
the seed and a step budget that is often small enough to run out.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import LaneSpec, run_lanes
from repro.batch.engine import DEFAULT_MAX_STEPS
from repro.consensus import AdsConsensus
from repro.obs.metrics import MetricsRegistry
from repro.runtime import RandomScheduler, StepBudgetExceeded

inputs_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n)
)
seed_strategy = st.integers(min_value=0, max_value=2**32 - 1)
#: Budgets from "exhausted before the first decision" up to the default;
#: n = 3..6 runs take hundreds to tens of thousands of steps.
max_steps_strategy = st.one_of(
    st.integers(min_value=0, max_value=4_000),
    st.integers(min_value=4_000, max_value=40_000),
    st.just(DEFAULT_MAX_STEPS),
)


def _serial(inputs, seed, max_steps):
    """The bare generator-runtime run a sweep cell makes, or ``None``
    when it exhausts its budget."""
    try:
        return AdsConsensus().run(
            list(inputs),
            scheduler=RandomScheduler(seed=seed),
            seed=seed,
            max_steps=max_steps,
            metrics=MetricsRegistry(enabled=False),
        )
    except StepBudgetExceeded:
        return None


def _assert_lane_matches(lane, run):
    assert lane.decisions == run.decisions
    assert lane.total_steps == run.total_steps
    assert lane.steps_by_pid == run.outcome.steps_by_pid
    assert lane.rounds_by_pid == run.stats["rounds_by_pid"]
    assert lane.flips_by_pid == run.stats["flips_by_pid"]
    assert lane.scans_by_pid == run.stats["scans_by_pid"]


@settings(max_examples=150, deadline=None)
@given(inputs_strategy, seed_strategy, max_steps_strategy)
def test_lane_reproduces_serial_or_falls_back_exactly(inputs, seed, max_steps):
    (lane,) = run_lanes([LaneSpec(tuple(inputs), seed, max_steps)])
    run = _serial(inputs, seed, max_steps)
    # n < 2 is outside the fast path: the sweep cell's hook refuses it.
    expected = len(inputs) < 2 or run is None
    assert (lane.fallback is not None) == expected, lane.fallback
    if lane.fallback is None:
        _assert_lane_matches(lane, run)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_budget_boundary_matches_serial(n):
    # A budget of exactly the run's length completes it; one step less
    # exhausts it, in both interpreters.
    inputs = tuple(i % 2 for i in range(n))
    total = _serial(inputs, 7, DEFAULT_MAX_STEPS).total_steps
    exact, short = run_lanes(
        [LaneSpec(inputs, 7, total), LaneSpec(inputs, 7, total - 1)]
    )
    assert exact.fallback is None
    _assert_lane_matches(exact, _serial(inputs, 7, total))
    assert short.fallback is not None
    assert _serial(inputs, 7, total - 1) is None
