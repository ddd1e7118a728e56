"""E4 — §6.3: the expected number of rounds to decide is O(1) in n.

Per round, the protocol decides deterministically or with the shared coin's
agreement probability ε > 0 (Lemmas 3.1 + 3.4, via Lemma 6.8 independence),
so the expected number of rounds is a constant — *independent of n*.

Workload: ADS consensus with split inputs, n swept, under random and
lockstep schedules.  Measured: mean max-rounds per run and its log-log
slope in n (paper: ≈ 0).
"""

import statistics

from _common import bench_timer, bench_workers, record, reset

from repro.analysis.experiment import repeat_runs
from repro.analysis.stats import growth_exponent
from repro.consensus import AdsConsensus, validate_run
from repro.resilience import RunPlan
from repro.runtime import RandomScheduler
from repro.runtime.adversary import LockstepAdversary

N_VALUES = (2, 3, 4, 5, 6, 7)
REPS = 10


def rounds_for(n, seed, lockstep):
    scheduler = (
        LockstepAdversary("mem", seed=seed) if lockstep else RandomScheduler(seed=seed)
    )
    inputs = [p % 2 for p in range(n)]
    run = AdsConsensus().run(
        inputs, scheduler=scheduler, seed=seed, max_steps=100_000_000
    )
    assert validate_run(run).ok
    return run.max_rounds()


def run_experiment(workers=None):
    reset("e4")
    workers = bench_workers() if workers is None else workers
    results = {}
    with bench_timer("e4", workers=workers):
        return _run_tables(workers, results)


def _run_tables(workers, results):
    for lockstep in (False, True):
        rows, means = [], []
        for n in N_VALUES:
            samples = repeat_runs(
                lambda seed: rounds_for(n, seed, lockstep),
                range(REPS),
                RunPlan(workers=workers),
            )
            mean = statistics.mean(samples)
            means.append(mean)
            rows.append(
                {
                    "n": n,
                    "mean rounds": mean,
                    "max rounds": max(samples),
                    "paper": "O(1)",
                }
            )
        slope = growth_exponent(list(N_VALUES), means)
        rows.append({"n": "slope", "mean rounds": slope, "paper": "~0"})
        label = "lockstep" if lockstep else "random"
        results[label] = (means, slope)
        record("e4", rows, f"E4 §6.3 — ADS rounds to decide vs n ({label})")
    return results


def test_e4_rounds_constant(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for label, (means, slope) in results.items():
        assert abs(slope) < 0.5, f"{label}: rounds grow with n (slope {slope})"
        assert max(means) <= 8, f"{label}: expected-constant rounds too large"


if __name__ == "__main__":
    run_experiment()
