"""Serial-vs-parallel equivalence: same seeds, same outputs, any workers.

The determinism contract of :mod:`repro.parallel` — every consumer (sweep,
fuzz grid, mutation campaign) must produce bit-identical results at any
worker count, because each task derives all randomness from its own seed.
"""

import pytest

from repro.analysis.experiment import Sweep, repeat_runs, sweep_table
from repro.consensus import AdsConsensus, validate_run
from repro.faults.campaign import run_mutation_campaign
from repro.parallel.engine import _fork_available
from repro.resilience import RunPlan
from repro.runtime.rng import derive_rng
from repro.verify.fuzz import fuzz_consensus

needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="fork start method unavailable"
)


def _metric(seed: int) -> float:
    """A cheap, seed-deterministic stand-in for one simulation run."""
    rng = derive_rng(seed, "equivalence")
    return sum(rng.random() for _ in range(50))


def _consensus_steps(n: int, seed: int) -> float:
    run = AdsConsensus().run(
        [(seed + i) % 2 for i in range(n)], seed=seed, max_steps=50_000_000
    )
    assert validate_run(run).ok
    return float(run.total_steps)


@needs_fork
def test_repeat_runs_equivalence():
    seeds = range(12)
    assert repeat_runs(_metric, seeds, RunPlan(workers=1)) == repeat_runs(
        _metric, seeds, RunPlan(workers=4)
    )


@needs_fork
def test_sweep_equivalence_real_consensus():
    def build():
        return Sweep("n", [2, 3], _consensus_steps, repetitions=3, seed_base=100)

    serial = build().execute(RunPlan(workers=1))
    parallel = build().execute(RunPlan(workers=4))
    assert [p.params for p in serial] == [p.params for p in parallel]
    assert [p.samples for p in serial] == [p.samples for p in parallel]
    assert sweep_table(serial) == sweep_table(parallel)


def _fuzz(workers):
    return fuzz_consensus(
        lambda: AdsConsensus(),
        n_values=[2, 3],
        runs_per_cell=3,
        master_seed=7,
        plan=RunPlan(workers=workers),
    )


@needs_fork
def test_fuzz_grid_equivalence():
    serial = _fuzz(1)
    parallel = _fuzz(4)
    assert serial.runs == parallel.runs
    assert serial.steps_total == parallel.steps_total
    assert serial.by_scheduler == parallel.by_scheduler
    assert serial.failures == parallel.failures
    assert serial.summary() == parallel.summary()


@needs_fork
def test_chaos_campaign_equivalence():
    serial = run_mutation_campaign(
        seed=3, consensus_max_steps=100_000, plan=RunPlan(workers=1)
    )
    parallel = run_mutation_campaign(
        seed=3, consensus_max_steps=100_000, plan=RunPlan(workers=4)
    )
    assert serial.to_json() == parallel.to_json()
    assert serial.ok == parallel.ok
