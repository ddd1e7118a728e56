"""E3 — Lemmas 3.3/3.4: counter-overflow probability vanishes like b·n/√m.

Workload: standalone bounded coin with deliberately small counter bounds m,
swept upward to the paper's default (f(b)·n)².  Measured: the fraction of
tosses in which any process's counter left {-m..m} (forcing the
deterministic-heads rule), against the paper's C·b·n/√m shape.
"""

from _common import bench_timer, bench_workers, record, reset

from repro.analysis.experiment import repeat_runs
from repro.analysis.stats import wilson_interval
from repro.analysis.theory import e3_overflow_bound
from repro.coin import BoundedWalkSharedCoin, coin_flipper_program
from repro.coin.logic import default_m
from repro.resilience import RunPlan
from repro.runtime import RandomScheduler, Simulation

N = 3
B = 2
REPS = 100


def toss_overflows(n, b, m, seed):
    sim = Simulation(n, RandomScheduler(seed=seed), seed=seed)
    coin = BoundedWalkSharedCoin(sim, "coin", n, b_barrier=b, m_bound=m)
    sim.spawn_all(coin_flipper_program(coin))
    sim.run(20_000_000)
    return coin.any_overflow()


def run_experiment(workers=None):
    reset("e3")
    workers = bench_workers() if workers is None else workers
    with bench_timer("e3", workers=workers):
        return _run_table(workers)


def _run_table(workers):
    m_values = [9, 36, 144, default_m(B, N)]  # default_m(2, 3) = 576
    rows = []
    for m in m_values:
        flags = repeat_runs(
            lambda seed: toss_overflows(N, B, m, seed),
            range(REPS),
            RunPlan(workers=workers),
        )
        overflows = sum(flags)
        rate, _, high = wilson_interval(overflows, REPS)
        rows.append(
            {
                "m": m,
                "overflow rate": rate,
                "wilson high": high,
                "paper shape b·n/sqrt(m)": min(1.0, e3_overflow_bound(B, N, m)),
                "tosses": REPS,
            }
        )
    record("e3", rows, f"E3 Lemmas 3.3/3.4 — overflow frequency vs m (n={N}, b={B})")
    return rows


def test_e3_overflow(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rates = [row["overflow rate"] for row in rows]
    # Shape: overflow frequency is (weakly) decreasing in m...
    assert all(a >= b - 0.05 for a, b in zip(rates, rates[1:]))
    # ...vanishes at the paper's default m...
    assert rates[-1] == 0.0
    # ...and sits below the paper's bound everywhere.
    for row in rows:
        assert row["overflow rate"] <= row["paper shape b·n/sqrt(m)"] + 0.05


if __name__ == "__main__":
    run_experiment()
