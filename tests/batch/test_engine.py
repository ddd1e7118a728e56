"""Bit-identity of the struct-of-arrays engine against the serial runtime.

The engine's whole contract is "same bits, fewer dispatch layers": every
lane must reproduce the serial ``AdsConsensus().run(...)`` outcome —
decisions, total steps, per-pid step/round/flip/scan counts — exactly,
and anything it cannot interpret must surface as a ``fallback`` reason
rather than an approximated result.
"""

import pytest

from repro.batch import LaneSpec, engine, run_lanes
from repro.consensus import AdsConsensus
from repro.runtime import RandomScheduler
from repro.strip.edge_counters import CounterGraph, IllFormedCounters

SEEDS = range(12)


def serial_run(inputs, seed, max_steps=2_000_000):
    return AdsConsensus().run(
        list(inputs),
        scheduler=RandomScheduler(seed=seed),
        seed=seed,
        max_steps=max_steps,
    )


def lane_spec(n, seed, max_steps=2_000_000):
    return LaneSpec(
        inputs=tuple((seed + i) % 2 for i in range(n)),
        seed=seed,
        max_steps=max_steps,
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lane_outcomes_bit_identical_to_serial(n):
    specs = [lane_spec(n, seed) for seed in SEEDS]
    lanes = run_lanes(specs)
    for seed, lane in zip(SEEDS, lanes):
        assert lane.fallback is None, (seed, lane.fallback)
        run = serial_run(lane.spec.inputs, seed)
        assert lane.decisions == run.decisions, seed
        assert lane.total_steps == run.total_steps, seed
        assert lane.steps_by_pid == run.outcome.steps_by_pid, seed
        assert lane.rounds_by_pid == run.stats["rounds_by_pid"], seed
        assert lane.flips_by_pid == run.stats["flips_by_pid"], seed
        assert lane.scans_by_pid == run.stats["scans_by_pid"], seed
        assert lane.max_rounds() == run.max_rounds(), seed


def test_mixed_sizes_one_batch():
    # Lanes of different n interleave in one batch; each still matches
    # its own serial run (retirement of small lanes must not perturb the
    # survivors — their RNG streams are per-lane).
    specs = [lane_spec(n, seed) for n in (2, 4, 3) for seed in range(4)]
    for spec, lane in zip(specs, run_lanes(specs)):
        assert lane.fallback is None
        run = serial_run(spec.inputs, spec.seed)
        assert lane.decisions == run.decisions
        assert lane.total_steps == run.total_steps


def test_chunk_size_is_invisible():
    specs = [lane_spec(3, seed) for seed in range(6)]
    coarse = run_lanes(specs)
    fine = run_lanes(specs, chunk=7)
    for a, b in zip(coarse, fine):
        assert a.decisions == b.decisions
        assert a.total_steps == b.total_steps
        assert a.steps_by_pid == b.steps_by_pid


def test_single_process_lane_falls_back():
    (lane,) = run_lanes([LaneSpec(inputs=(1,), seed=0)])
    assert lane.fallback is not None


def test_lane_wider_than_a_byte_falls_back_before_priming(monkeypatch):
    # A grant is decoded from one byte per scheduler word, so n = 256 is
    # refused up front, before 256 counter rows are primed.
    def primed(*args):
        raise AssertionError("lane primed before its size was checked")

    monkeypatch.setattr(engine._Lane, "_graph", primed)
    (lane,) = run_lanes([LaneSpec(inputs=(0, 1) * 128, seed=0)])
    assert lane.fallback == "fast path needs n <= 255"


@pytest.mark.parametrize("chunk", [0, -1])
def test_non_positive_chunk_is_rejected_before_any_lane(chunk, monkeypatch):
    # advance(0) takes no step, so the round-robin loop would spin forever.
    def built(*args):
        raise AssertionError("lane built before chunk was checked")

    monkeypatch.setattr(engine, "_Lane", built)
    with pytest.raises(ValueError, match="chunk"):
        run_lanes([lane_spec(3, 0)], chunk=chunk)


def test_non_binary_inputs_fall_back():
    (lane,) = run_lanes([LaneSpec(inputs=(0, 2, 1), seed=0)])
    assert lane.fallback is not None


def test_exhausted_budget_falls_back():
    (lane,) = run_lanes([lane_spec(3, 0, max_steps=10)])
    assert lane.fallback is not None
    # A sibling lane with a real budget is untouched by the fallback.
    strict, healthy = run_lanes([lane_spec(3, 0, max_steps=10), lane_spec(3, 0)])
    assert strict.fallback is not None
    assert healthy.fallback is None
    assert healthy.total_steps == serial_run(healthy.spec.inputs, 0).total_steps


def seed_edge_rows(monkeypatch, rows_by_seed):
    """Build each lane whose seed is in ``rows_by_seed`` with every cell and
    V register holding those edge rows, so every protocol step it takes
    decodes them (no process can advance its row past them)."""
    build = engine._Lane

    def seeded(spec, caches, record):
        lane = build(spec, caches, record)
        for pid, row in enumerate(rows_by_seed.get(spec.seed, ())):
            cell = (spec.inputs[pid], (0,) * (engine.K + 1), 1, row)
            lane.cells[pid] = cell
            lane.V[pid] = (cell, 0)
        return lane

    monkeypatch.setattr(engine, "_Lane", seeded)


def test_shared_core_errors_become_fallback_reasons(monkeypatch):
    ill_formed = ((0, 3, 0), (0, 0, 0), (0, 0, 0))  # d = 3K/2 both ways
    with pytest.raises(IllFormedCounters) as decode_error:
        CounterGraph(ill_formed, engine.K)
    # A positive cycle 0 -> 1 -> 2 -> 0 decodes, but has no leaders, so
    # the error surfaces only once a coin-decided round reaches inc_row.
    cycle = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    with pytest.raises(ValueError, match="positive cycle") as cycle_error:
        CounterGraph(cycle, engine.K).inc_row(0)
    seed_edge_rows(monkeypatch, {101: ill_formed, 102: cycle})
    bad_decode, bad_cycle, healthy = run_lanes(
        [
            LaneSpec(inputs=(0, 1, 0), seed=101),
            LaneSpec(inputs=(0, 1, 0), seed=102),
            lane_spec(3, 0),
        ]
    )
    assert bad_decode.fallback == str(decode_error.value)
    assert bad_cycle.fallback == str(cycle_error.value)
    assert healthy.fallback is None
    assert healthy.total_steps == serial_run(healthy.spec.inputs, 0).total_steps


def test_results_keep_submission_order():
    specs = [lane_spec(3, seed) for seed in (5, 1, 9)]
    lanes = run_lanes(specs)
    assert [lane.spec.seed for lane in lanes] == [5, 1, 9]
