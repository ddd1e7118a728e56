"""Hot-path throughput measurement (steps/sec) and overhead attribution.

The simulator's regression story has two halves.  The *semantic* half is
deterministic and exactly gated: step counts, metrics snapshots and audit
numbers are identical for identical seeds, so ``repro bench --check``
compares them value-by-value.  The *physical* half — how many atomic
steps per wall-clock second the serial step loop sustains — measures the
host as much as the code, so it is recorded (``BENCH_P1.json``) but only
loosely gated.

This module provides both halves for the P1 throughput benchmark and the
``repro profile`` command:

- three serial **workloads** exercising different layer mixes:
  ``consensus`` (the full ADS protocol: snapshot + coin + strip),
  ``scan`` (arrow scannable-memory traffic only) and ``coin`` (bounded
  shared-coin traffic only);
- three **instrumentation modes** per workload: ``bare`` (metrics
  disabled, so no memory audit either, and no event/span recording — the
  zero-cost-when-off path), ``metrics`` (the default: counters/gauges/
  histograms and the consensus memory audit on, recording off) and
  ``trace`` (metrics plus full event+span recording);
- :func:`measure_throughput` / :func:`throughput_table` timing each cell
  best-of-``repeats`` into ``steps_per_sec``;
- :func:`overhead_rows` reducing the table to instrumented-vs-bare
  overhead ratios, the number the "zero-cost instrumentation" claim is
  judged by.

Every workload's *step count* is deterministic per seed and identical
across the three modes (instrumentation must not change the schedule);
:func:`throughput_table` asserts that invariant on every run, so merely
measuring throughput doubles as an A/B equivalence check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.consensus.ads import AdsConsensus
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import Profiler
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.simulation import Simulation

#: Instrumentation modes: (metrics enabled, record events, record spans).
MODES: dict[str, tuple[bool, bool, bool]] = {
    "bare": (False, False, False),
    "metrics": (True, False, False),
    "trace": (True, True, True),
}

WORKLOADS = ("consensus", "scan", "coin")

#: Default seeds per throughput cell (small: CI runs every cell 3 modes).
DEFAULT_SEEDS = tuple(range(100, 106))

#: Per-process operation count for the scan/coin micro-workloads.
SCAN_ITERATIONS = 40
COIN_FLIPPERS = 4
SCAN_PROCESSES = 4
CONSENSUS_PROCESSES = 4


@dataclass(frozen=True)
class ThroughputSample:
    """One measured (workload, mode) cell."""

    workload: str
    mode: str
    steps: int
    wall_seconds: float

    @property
    def steps_per_sec(self) -> float:
        return self.steps / self.wall_seconds if self.wall_seconds > 0 else 0.0


def _registry(mode: str) -> MetricsRegistry:
    return MetricsRegistry(enabled=MODES[mode][0])


def _run_consensus(mode: str, seed: int) -> int:
    enabled, events, spans = MODES[mode]
    run = AdsConsensus().run(
        [(seed + i) % 2 for i in range(CONSENSUS_PROCESSES)],
        seed=seed,
        metrics=MetricsRegistry(enabled=enabled),
        record_events=events,
        record_spans=spans,
    )
    return run.total_steps


def _run_scan(mode: str, seed: int) -> int:
    from repro.snapshot.arrows import ArrowScannableMemory

    enabled, events, spans = MODES[mode]
    sim = Simulation(
        SCAN_PROCESSES,
        RandomScheduler(seed=seed),
        seed=seed,
        record_events=events,
        record_spans=spans,
        metrics=MetricsRegistry(enabled=enabled),
    )
    mem = ArrowScannableMemory(sim, "M", SCAN_PROCESSES)

    def factory(pid: int):
        def body(ctx):
            for k in range(SCAN_ITERATIONS):
                yield from mem.write(ctx, (pid, k))
                yield from mem.scan(ctx)
            return None

        return body

    sim.spawn_all(factory)
    return sim.run(5_000_000).total_steps


def _run_coin(mode: str, seed: int) -> int:
    from repro.coin import BoundedWalkSharedCoin, coin_flipper_program

    enabled, events, spans = MODES[mode]
    sim = Simulation(
        COIN_FLIPPERS,
        RandomScheduler(seed=seed),
        seed=seed,
        record_events=events,
        record_spans=spans,
        metrics=MetricsRegistry(enabled=enabled),
    )
    coin = BoundedWalkSharedCoin(sim, "coin", COIN_FLIPPERS, b_barrier=2)
    sim.spawn_all(coin_flipper_program(coin))
    return sim.run(5_000_000).total_steps


_RUNNERS: dict[str, Callable[[str, int], int]] = {
    "consensus": _run_consensus,
    "scan": _run_scan,
    "coin": _run_coin,
}


def run_workload(workload: str, mode: str, seeds: Sequence[int]) -> int:
    """Run one workload over ``seeds``; return total atomic steps taken."""
    runner = _RUNNERS[workload]
    return sum(runner(mode, seed) for seed in seeds)


def measure_throughput(
    workload: str,
    mode: str,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    repeats: int = 3,
    profiler: Profiler | None = None,
) -> ThroughputSample:
    """Best-of-``repeats`` wall-clock for one (workload, mode) cell.

    Best-of (not mean) because throughput noise is one-sided: the host
    can only steal time, never donate it.  With a ``profiler``, every
    repeat also lands in the ``profile.<workload>.<mode>`` histogram.
    """
    steps = 0
    best = float("inf")
    for _ in range(max(1, repeats)):
        if profiler is not None:
            with profiler.section(f"{workload}.{mode}"):
                start = time.perf_counter()
                steps = run_workload(workload, mode, seeds)
                elapsed = time.perf_counter() - start
        else:
            start = time.perf_counter()
            steps = run_workload(workload, mode, seeds)
            elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return ThroughputSample(workload, mode, steps, best)


def throughput_table(
    workloads: Sequence[str] = WORKLOADS,
    modes: Sequence[str] = tuple(MODES),
    seeds: Sequence[int] = DEFAULT_SEEDS,
    repeats: int = 3,
    profiler: Profiler | None = None,
) -> list[ThroughputSample]:
    """Measure every (workload, mode) cell.

    Asserts the A/B invariant that instrumentation never changes the
    schedule: all modes of one workload must take exactly the same number
    of atomic steps.
    """
    samples = [
        measure_throughput(w, m, seeds, repeats, profiler)
        for w in workloads
        for m in modes
    ]
    for workload in workloads:
        counts = {s.steps for s in samples if s.workload == workload}
        if len(counts) > 1:
            raise AssertionError(
                f"instrumentation changed the schedule of {workload!r}: "
                f"step counts {sorted(counts)} differ across modes"
            )
    return samples


def overhead_rows(samples: Sequence[ThroughputSample]) -> list[dict]:
    """Per-workload overhead ratios relative to the ``bare`` mode.

    ``overhead_vs_bare`` is mode-time / bare-time, a slowdown factor:
    1.00 means the mode costs nothing over bare; 1.30 means 30% dearer.
    """
    by_cell = {(s.workload, s.mode): s for s in samples}
    rows = []
    for workload in dict.fromkeys(s.workload for s in samples):
        bare = by_cell.get((workload, "bare"))
        if bare is None or bare.wall_seconds <= 0:
            continue
        for mode in dict.fromkeys(s.mode for s in samples):
            cell = by_cell.get((workload, mode))
            if cell is None:
                continue
            rows.append(
                {
                    "workload": workload,
                    "mode": mode,
                    "steps": cell.steps,
                    "steps_per_sec": round(cell.steps_per_sec),
                    "overhead_vs_bare": round(
                        cell.wall_seconds / bare.wall_seconds, 3
                    ),
                }
            )
    return rows


def profile_breakdown(
    seeds: Sequence[int] = DEFAULT_SEEDS, repeats: int = 3
) -> tuple[list[dict], Profiler]:
    """The ``repro profile`` payload: throughput cells + wall-clock histograms.

    Returns the overhead table and the :class:`Profiler` whose
    ``profile.<workload>.<mode>`` histograms hold every timed repeat, so
    callers can report min/mean/max per cell from one measurement pass.
    """
    profiler = Profiler(MetricsRegistry())
    samples = throughput_table(seeds=seeds, repeats=repeats, profiler=profiler)
    return overhead_rows(samples), profiler


# ---------------------------------------------------------------------------
# Batched mode: the struct-of-arrays engine measured against serial bare.
# ---------------------------------------------------------------------------

#: Lanes per batched measurement.  The first ``len(DEFAULT_SEEDS)`` lane
#: seeds coincide with the serial consensus cell, so the batched run's
#: equivalence with serial is checked inside the measurement itself.
BATCHED_LANES = 32


def batched_lane_specs(seeds: Sequence[int] = DEFAULT_SEEDS, lanes: int = BATCHED_LANES):
    """Consensus lane specs: ``lanes`` consecutive seeds from ``seeds[0]``,
    each the exact (inputs, seed) cell ``_run_consensus`` runs serially."""
    from repro.batch import LaneSpec

    base = seeds[0]
    return [
        LaneSpec(
            inputs=tuple((seed + i) % 2 for i in range(CONSENSUS_PROCESSES)),
            seed=seed,
        )
        for seed in range(base, base + lanes)
    ]


def measure_batched_throughput(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    lanes: int = BATCHED_LANES,
    repeats: int = 3,
    profiler: Profiler | None = None,
) -> ThroughputSample:
    """Best-of-``repeats`` aggregate steps/sec of the fused batch loop.

    Raises if any lane needed a serial fallback — the benchmark exists to
    measure the fast path, and a silent fallback would quietly measure
    the wrong interpreter.
    """
    from repro.batch import run_lanes

    specs = batched_lane_specs(seeds, lanes)
    steps = 0
    best = float("inf")
    for _ in range(max(1, repeats)):
        if profiler is not None:
            with profiler.section("consensus.batched"):
                start = time.perf_counter()
                results = run_lanes(specs)
                elapsed = time.perf_counter() - start
        else:
            start = time.perf_counter()
            results = run_lanes(specs)
            elapsed = time.perf_counter() - start
        fallbacks = [r.fallback for r in results if r.fallback is not None]
        if fallbacks:
            raise AssertionError(
                f"batched benchmark lanes fell back to serial: {fallbacks}"
            )
        steps = sum(r.total_steps for r in results)
        best = min(best, elapsed)
    return ThroughputSample("consensus", "batched", steps, best)


def batched_rows(
    bare: ThroughputSample,
    batched: ThroughputSample,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    lanes: int = BATCHED_LANES,
) -> list[dict]:
    """The BENCH_P1 ``batched`` row, gate-ready.

    ``steps`` and ``serial_prefix_steps`` are deterministic (numerically
    gated); ``matches_serial`` is a boolean (gated exactly); the speedup
    and steps/sec figures measure the host and ride under timing-marker
    keys the gate skips.  Canonical sweep cells run as fused lanes by
    default, so no workload of the end-to-end benchmark runs the
    generator runtime any more: this row's speedup over the serial bare
    row is where the ratio of the two interpreters is measured, ungated.
    """
    from repro.batch import run_lanes

    prefix = run_lanes(batched_lane_specs(seeds, len(seeds)))
    prefix_steps = sum(r.total_steps for r in prefix)
    speedup = (
        batched.steps_per_sec / bare.steps_per_sec if bare.steps_per_sec else 0.0
    )
    return [
        {
            "workload": "consensus",
            "mode": "batched",
            "lanes": lanes,
            "steps": batched.steps,
            "serial_prefix_steps": prefix_steps,
            # The lanes sharing the serial cell's seeds must reproduce its
            # step counts exactly — bit-identity, gated as a boolean.
            "matches_serial": prefix_steps == bare.steps,
            "steps_per_sec": round(batched.steps_per_sec),
            "speedup_vs_bare_wall": round(speedup, 2),
        }
    ]
