"""P1 — step-loop throughput: serial instrumentation modes + batched struct-of-arrays mode.

The reproduction's semantic claims are gated exactly (steps, metrics,
audits are deterministic per seed); this benchmark records the *physical*
counterpart: atomic steps per wall-clock second sustained by the serial
step loop, for three workloads (full ADS consensus, arrow-scan traffic
only, bounded-coin traffic only) under three instrumentation modes
(bare / metrics-on / full trace recording).

Gated values: the step counts, which are deterministic per seed and must
be identical across modes (instrumentation that changed the schedule
would be a correctness bug — ``throughput_table`` raises on it, and the
A/B golden tests pin the same invariant).  The ``steps_per_sec`` and
``overhead_vs_bare_wall`` columns measure the host and are skipped by the
regression gate (``per_sec`` / ``wall`` are timing-key markers); CI runs
the gate on this artifact with a wide tolerance anyway, so even incidental
numeric drift in future columns fails soft rather than flaky.

The ``batched`` mode measures the struct-of-arrays engine
(:mod:`repro.batch`) driving 32 consensus lanes through one fused step
loop.  Its gated values: the aggregate step count (deterministic — the
lanes are seeded) and ``matches_serial`` (the lanes sharing the serial
cell's seeds reproduced its step counts bit-for-bit).  Its speedup over
the serial consensus/bare row is recorded under a timing key, ungated:
a ratio of two in-process wall-clocks of ~0.05 s each moves with host
noise, so whether the fused lanes stay is read from the end-to-end
benchmark's ``sweep-batched`` over ``sweep-large`` steps/sec instead.
"""

from _common import attach_timing, bench_timer, bench_workers, record, reset

from repro.analysis.perfbench import (
    BATCHED_LANES,
    DEFAULT_SEEDS,
    batched_rows,
    measure_batched_throughput,
    overhead_rows,
    throughput_table,
)

REPEATS = 3


def run_experiment(workers=None):
    reset("p1")
    workers = bench_workers() if workers is None else workers
    with bench_timer("p1", workers=workers):
        return _run_body()


def _run_body():
    samples = throughput_table(seeds=DEFAULT_SEEDS, repeats=REPEATS)
    by_cell = {(s.workload, s.mode): s for s in samples}
    rows = []
    for row in overhead_rows(samples):
        rows.append(
            {
                "workload": row["workload"],
                "mode": row["mode"],
                "steps": row["steps"],
                "steps_per_sec": row["steps_per_sec"],
                "overhead_vs_bare_wall": row["overhead_vs_bare"],
            }
        )
    record(
        "p1",
        rows,
        "P1 — serial steps/sec by workload and instrumentation mode",
    )
    bare = by_cell[("consensus", "bare")]
    attach_timing(
        "p1",
        "consensus_bare",
        bare.wall_seconds,
        steps_per_sec=round(bare.steps_per_sec),
        repeats=REPEATS,
    )
    batched = measure_batched_throughput(seeds=DEFAULT_SEEDS, repeats=REPEATS)
    brows = batched_rows(bare, batched, seeds=DEFAULT_SEEDS)
    record(
        "p1",
        brows,
        "P1 — batched struct-of-arrays aggregate throughput",
    )
    attach_timing(
        "p1",
        "consensus_batched",
        batched.wall_seconds,
        steps_per_sec=round(batched.steps_per_sec),
        lanes=BATCHED_LANES,
        repeats=REPEATS,
    )
    return rows + brows


def test_p1_throughput(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    serial = [row for row in rows if row["mode"] != "batched"]
    batched = [row for row in rows if row["mode"] == "batched"]
    by_workload = {}
    for row in serial:
        by_workload.setdefault(row["workload"], set()).add(row["steps"])
    # Instrumentation must not change the schedule: per workload, every
    # mode took exactly the same number of atomic steps.
    for workload, counts in by_workload.items():
        assert len(counts) == 1, (workload, counts)
        assert counts.pop() > 0
    # Throughput was actually measured (host-dependent, so no magnitude
    # assertion here — the 2x acceptance number is recorded in the PR).
    assert all(row["steps_per_sec"] > 0 for row in rows)
    # Batched struct-of-arrays mode: bit-identical to serial on the shared
    # seeds.
    assert len(batched) == 1
    assert batched[0]["matches_serial"] is True


if __name__ == "__main__":
    run_experiment()
