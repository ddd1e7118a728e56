"""E1 — Lemma 3.1: shared-coin disagreement probability falls like ~1/b.

Workload: one standalone bounded weak shared coin per repetition; all n
processes flip until they see a value.  Swept over the barrier parameter b
under both a fair scheduler and the walk-balancing adversary.  Measured:
the fraction of tosses on which any two processes saw different outcomes,
with a Wilson upper confidence bound compared against the paper's 1/b.
"""

from _common import bench_timer, bench_workers, record, record_speedup, reset

from repro.analysis.experiment import repeat_runs
from repro.analysis.stats import wilson_interval
from repro.analysis.theory import e1_disagreement_bound
from repro.coin import BoundedWalkSharedCoin, coin_flipper_program
from repro.resilience import RunPlan
from repro.runtime import RandomScheduler, Simulation, WalkBalancingAdversary
from repro.runtime.adversary import CoinDisagreementAdversary

N = 3
REPS = 120
B_VALUES = (2, 4, 8)
PROBE_REPS = 60  # replications for the serial-vs-4-worker speedup probe


SCHEDULERS = {
    "random": lambda seed: RandomScheduler(seed=seed),
    "walk-balancing": lambda seed: WalkBalancingAdversary("coin", seed=seed),
    "splitting": lambda seed: CoinDisagreementAdversary("coin", seed=seed),
}


def toss(n, b, seed, scheduler_name):
    scheduler = SCHEDULERS[scheduler_name](seed)
    sim = Simulation(n, scheduler, seed=seed)
    coin = BoundedWalkSharedCoin(sim, "coin", n, b_barrier=b)
    sim.spawn_all(coin_flipper_program(coin))
    outcome = sim.run(10_000_000)
    return len(set(outcome.decisions.values())) > 1


def run_experiment(workers=None):
    reset("e1")
    workers = bench_workers() if workers is None else workers
    tables = {}
    with bench_timer("e1", workers=workers):
        for label in SCHEDULERS:
            rows = []
            for b in B_VALUES:
                flags = repeat_runs(
                    lambda seed: float(toss(N, b, seed, label)),
                    range(REPS),
                    RunPlan(workers=workers),
                )
                disagreements = int(sum(flags))
                rate, low, high = wilson_interval(disagreements, REPS)
                rows.append(
                    {
                        "b": b,
                        "disagree rate": rate,
                        "wilson high": high,
                        "paper bound 1/b": e1_disagreement_bound(b),
                        "tosses": REPS,
                    }
                )
            tables[label] = rows
            record(
                "e1",
                rows,
                f"E1 Lemma 3.1 — coin disagreement vs b (n={N}, {label} scheduler)",
            )
    record_speedup(
        "e1",
        lambda w: repeat_runs(
            lambda seed: float(toss(N, 8, seed, "walk-balancing")),
            range(PROBE_REPS),
            RunPlan(workers=w),
        ),
        workers=4,
    )
    return tables


def test_e1_coin_disagreement(benchmark):
    tables = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    for rows in tables.values():
        for row in rows:
            # Shape: measured disagreement under the paper's 1/b bound
            # (Wilson-adjusted to be robust at these sample sizes).
            assert row["wilson high"] <= row["paper bound 1/b"] + 0.05
        # Direction: the bound (and the rates, weakly) tighten as b grows.
        bounds = [row["paper bound 1/b"] for row in rows]
        assert bounds == sorted(bounds, reverse=True)


if __name__ == "__main__":
    run_experiment()
