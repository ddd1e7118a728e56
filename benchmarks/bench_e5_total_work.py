"""E5 — the headline: polynomial total work, vs the exponential regime.

Workload: split inputs under the lockstep adversary (the schedule that
realizes Abrahamson's exponential lower-bound behaviour), n swept.

Measured:
- ADS total atomic steps: log-log growth exponent in n — a polynomial of
  low degree (paper: per-round O(1) coins × O(n²) flips × O(n)-step scans
  ⇒ ≈ n³);
- local-coin rounds: consecutive doubling ratio ≈ 2 (2^{n-1} rounds);
- the crossover: exponential beats polynomial at small n, loses after.
"""

import statistics

from _common import bench_timer, bench_workers, record, reset

from repro.analysis.charts import log_series_chart
from repro.analysis.experiment import repeat_runs
from repro.analysis.stats import doubling_ratio, growth_exponent
from repro.consensus import AdsConsensus, LocalCoinConsensus, validate_run
from repro.resilience import RunPlan
from repro.runtime.adversary import LockstepAdversary

N_VALUES = (3, 4, 5, 6, 7, 8)
REPS = 6


def measure(protocol_cls, n, seed):
    inputs = [p % 2 for p in range(n)]
    run = protocol_cls().run(
        inputs,
        scheduler=LockstepAdversary("mem", seed=seed),
        seed=seed,
        max_steps=200_000_000,
    )
    assert validate_run(run).ok
    return run.total_steps, run.max_rounds()


def run_experiment(workers=None):
    reset("e5")
    workers = bench_workers() if workers is None else workers
    with bench_timer("e5", workers=workers):
        return _run_table(workers)


def _run_table(workers):
    rows = []
    ads_steps, local_steps, local_rounds = [], [], []
    for n in N_VALUES:
        plan = RunPlan(workers=workers)
        ads = repeat_runs(
            lambda seed: measure(AdsConsensus, n, seed), range(REPS), plan
        )
        local = repeat_runs(
            lambda seed: measure(LocalCoinConsensus, n, seed), range(REPS), plan
        )
        ads_mean = statistics.mean(s for s, _ in ads)
        local_mean = statistics.mean(s for s, _ in local)
        local_rounds_mean = statistics.mean(r for _, r in local)
        ads_steps.append(ads_mean)
        local_steps.append(local_mean)
        local_rounds.append(local_rounds_mean)
        rows.append(
            {
                "n": n,
                "ads steps": ads_mean,
                "local-coin steps": local_mean,
                "local-coin rounds": local_rounds_mean,
                "paper local rounds": 2 ** (n - 1),
            }
        )
    ads_slope = growth_exponent(list(N_VALUES), ads_steps)
    rounds_ratio = doubling_ratio(local_rounds)
    rows.append(
        {
            "n": "shape",
            "ads steps": f"slope {ads_slope:.2f} (paper ~3)",
            "local-coin rounds": f"x{rounds_ratio:.2f}/n (paper x2)",
        }
    )
    record("e5", rows, "E5 — total work under the lockstep adversary")
    print(
        log_series_chart(
            list(N_VALUES),
            {"ads steps": ads_steps, "xlocal rounds": local_rounds},
            title="E5 growth shapes (even steps = exponential)",
        )
    )
    return ads_slope, rounds_ratio, ads_steps, local_steps


def test_e5_polynomial_vs_exponential(benchmark):
    ads_slope, rounds_ratio, ads_steps, local_steps = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    # ADS: a low-degree polynomial (and certainly not exponential).
    assert 1.5 <= ads_slope <= 4.5
    # Local coins: rounds roughly double with each added process.
    assert rounds_ratio >= 1.5
    # Who wins: the exponential regime is cheaper at n=3 but the
    # polynomial protocol's *growth* is milder — its step ratio between
    # the largest and smallest n is far smaller.
    assert local_steps[0] < ads_steps[0]
    assert (local_steps[-1] / local_steps[0]) > (ads_steps[-1] / ads_steps[0])


if __name__ == "__main__":
    run_experiment()
