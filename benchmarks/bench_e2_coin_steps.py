"""E2 — Lemma 3.2: expected flips until the shared coin decides ≈ (b+1)²n².

Workload: standalone bounded coin, swept over n at fixed b=2, fair and
adversarial schedules.  Measured: mean total walk steps, the log-log growth
exponent in n (paper: 2), and the ratio to the paper's (b+1)²·n² (the
adversary pushes the ratio towards 1; fair schedules decide sooner).
"""

import statistics

from _common import bench_timer, bench_workers, record, reset

from repro.analysis.experiment import repeat_runs
from repro.analysis.stats import growth_exponent
from repro.analysis.theory import e2_expected_flips
from repro.coin import BoundedWalkSharedCoin, coin_flipper_program
from repro.resilience import RunPlan
from repro.runtime import RandomScheduler, Simulation, WalkBalancingAdversary

B = 2
N_VALUES = (2, 3, 4, 6, 8)
REPS = 12


def flips_for(n, seed, adversarial):
    scheduler = (
        WalkBalancingAdversary("coin", seed=seed)
        if adversarial
        else RandomScheduler(seed=seed)
    )
    sim = Simulation(n, scheduler, seed=seed)
    coin = BoundedWalkSharedCoin(sim, "coin", n, b_barrier=B)
    sim.spawn_all(coin_flipper_program(coin))
    sim.run(20_000_000)
    return coin.total_steps


def run_experiment(workers=None):
    reset("e2")
    workers = bench_workers() if workers is None else workers
    results = {}
    with bench_timer("e2", workers=workers):
        return _run_tables(workers, results)


def _run_tables(workers, results):
    for adversarial in (False, True):
        rows = []
        means = []
        for n in N_VALUES:
            samples = repeat_runs(
                lambda seed: flips_for(n, seed, adversarial),
                range(REPS),
                RunPlan(workers=workers),
            )
            mean = statistics.mean(samples)
            means.append(mean)
            predicted = e2_expected_flips(B, n)
            rows.append(
                {
                    "n": n,
                    "mean flips": mean,
                    "paper (b+1)^2 n^2": predicted,
                    "ratio": mean / predicted,
                }
            )
        slope = growth_exponent(list(N_VALUES), means)
        rows.append({"n": "slope", "mean flips": slope, "paper (b+1)^2 n^2": 2.0})
        label = "adversary" if adversarial else "random"
        results[label] = (rows, slope)
        record("e2", rows, f"E2 Lemma 3.2 — coin flips vs n (b={B}, {label})")
    return results


def test_e2_coin_steps(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for label, (rows, slope) in results.items():
        # Shape: quadratic-ish growth in n.
        assert 1.4 <= slope <= 2.6, f"{label}: slope {slope}"
        # Never more than a small constant above the paper's bound.
        for row in rows[:-1]:
            assert row["ratio"] <= 2.0
    # The adversary forces more work than fair scheduling.
    assert results["adversary"][0][-2]["mean flips"] >= results["random"][0][-2][
        "mean flips"
    ]


if __name__ == "__main__":
    run_experiment()
