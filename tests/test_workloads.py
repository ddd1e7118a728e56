"""The canonical sweep cell runs bare and still returns the exact values
of a metrics-on run of the same cell, and the sweep and chaos defaults
are written once."""

import inspect

import pytest

from repro.cli import _parse_inputs, build_parser
from repro.consensus import AdsConsensus
from repro.runtime import RandomScheduler
from repro.workloads import (
    CHAOS_DEFAULTS,
    SWEEP_DEFAULTS,
    build_sweep,
    make_sweep_runner,
)

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


def test_sweep_and_chaos_defaults_are_the_tables():
    """The CLI flags and build_sweep default to the tables the serve spec
    defaults are, so a bare command and an empty spec name one cell set."""
    sweep = vars(build_parser().parse_args(["sweep"]))
    sweep["n_values"] = _parse_inputs(sweep["n_values"])
    assert {key: sweep[key] for key in SWEEP_DEFAULTS} == SWEEP_DEFAULTS
    signature = inspect.signature(build_sweep).parameters
    defaults = {key: parameter.default for key, parameter in signature.items()}
    assert {**defaults, "n_values": list(defaults["n_values"])} == SWEEP_DEFAULTS
    chaos = vars(build_parser().parse_args(["chaos"]))
    assert {key: chaos[key] for key in CHAOS_DEFAULTS} == CHAOS_DEFAULTS
