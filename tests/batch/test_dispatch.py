"""Batch-size dispatch: validation, units, and entry-point identity.

The batch size is a pure execution-strategy knob — these tests pin that
it is *observably absent* from every result: sweep ledger bytes, fuzz
reports and repeat_runs values are byte/value-identical at any batch
size, task indices survive the unit boundaries, and the ``batch_size``/
``REPRO_BATCH`` knobs reject nonsense with messages that name the knob.
Sweep cells run as fused lanes at every batch size, so their reference
is the same sweep run by the hook-less :class:`SweepCell`, which takes
the generator runtime.
"""

import dataclasses
import os

import pytest

from repro.analysis.experiment import repeat_runs
from repro.batch import engine as batch_engine
from repro.consensus import AdsConsensus
from repro.obs.ledger import RunLedger
from repro.parallel import resolve_batch_size, run_tasks, run_tasks_partial
from repro.parallel.engine import BATCH_ENV
from repro.resilience import RunPlan
from repro.runtime import RandomScheduler
from repro.verify.fuzz import fuzz_consensus
from repro.workloads import SWEEP_METRICS, SweepCell, build_sweep


# ---------------------------------------------------------------------------
# Knob validation
# ---------------------------------------------------------------------------


def test_resolve_none_without_env(monkeypatch):
    monkeypatch.delenv(BATCH_ENV, raising=False)
    assert resolve_batch_size(None) is None
    monkeypatch.setenv(BATCH_ENV, "   ")
    assert resolve_batch_size(None) is None


def test_resolve_reads_env(monkeypatch):
    monkeypatch.setenv(BATCH_ENV, "16")
    assert resolve_batch_size(None) == 16
    # An explicit argument wins over the environment.
    assert resolve_batch_size(4) == 4


@pytest.mark.parametrize("raw", ["zero", "4.5", "1e3"])
def test_env_non_integer_names_the_variable(monkeypatch, raw):
    monkeypatch.setenv(BATCH_ENV, raw)
    with pytest.raises(ValueError, match=BATCH_ENV):
        resolve_batch_size(None)


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_env_non_positive_names_the_variable(monkeypatch, raw):
    monkeypatch.setenv(BATCH_ENV, raw)
    with pytest.raises(ValueError, match=BATCH_ENV):
        resolve_batch_size(None)


@pytest.mark.parametrize("bad", [0, -1])
def test_argument_must_be_positive(bad):
    with pytest.raises(ValueError, match=">= 1"):
        resolve_batch_size(bad)


@pytest.mark.parametrize("bad", [True, 4.0, "4"])
def test_argument_must_be_an_int(bad):
    with pytest.raises(TypeError, match="batch_size"):
        resolve_batch_size(bad)


@pytest.mark.parametrize("raw", ["nope", "2.5"])
def test_cli_batch_arg_rejects_non_integers(raw):
    import argparse

    from repro.cli import _batch_arg

    with pytest.raises(argparse.ArgumentTypeError, match="not an integer"):
        _batch_arg(raw)


@pytest.mark.parametrize("raw", ["0", "-2"])
def test_cli_batch_arg_rejects_non_positive(raw):
    import argparse

    from repro.cli import _batch_arg

    with pytest.raises(argparse.ArgumentTypeError, match=">= 1"):
        _batch_arg(raw)


# ---------------------------------------------------------------------------
# Unit mechanics
# ---------------------------------------------------------------------------


def test_flat_indices_and_order():
    seen = []
    partial = run_tasks_partial(
        lambda task: task * 10,
        list(range(7)),
        batch_size=3,
        workers=0,
        on_result=seen.extend,
    )
    assert partial.results == [0, 10, 20, 30, 40, 50, 60]
    assert sorted(seen) == [(i, i * 10) for i in range(7)]
    assert not partial.errors


def test_group_error_reanchored_at_flat_index():
    def boom(task):
        if task == 5:
            raise RuntimeError("cell 5 exploded")
        return task

    partial = run_tasks_partial(boom, list(range(8)), batch_size=3, workers=0)
    assert len(partial.errors) == 1
    # Task 5 lives in unit 1 (tasks 3..5) but fails alone: the error is
    # at its own index and its unit-mates keep their results.
    assert partial.errors[0].index == 5
    assert partial.results == [0, 1, 2, 3, 4, None, 6, 7]


def test_unit_without_hooks_is_plain_map():
    assert run_tasks(lambda task: task + 1, [1, 2, 3], batch_size=3) == [2, 3, 4]


def test_unit_hook_refusal_falls_back():
    calls = []

    def run_task(task):
        calls.append(task)
        return ("serial", task)

    run_task.batch_lane = lambda task: None  # refuse every task
    run_task.batch_value = lambda task, lane: ("fused", task)
    assert run_tasks(run_task, [7, 8], batch_size=2) == [
        ("serial", 7),
        ("serial", 8),
    ]
    assert calls == [7, 8]


def test_progress_counts_flat_tasks():
    ticks = []
    run_tasks_partial(
        lambda task: task,
        list(range(5)),
        batch_size=2,
        workers=0,
        progress=lambda done, total: ticks.append((done, total)),
    )
    assert ticks[-1] == (5, 5)
    assert all(total == 5 for _, total in ticks)


# ---------------------------------------------------------------------------
# Entry-point identity: batching must be invisible in the results
# ---------------------------------------------------------------------------

#: n = 1 cells are refused by the fused-lane hook and run through the cell.
N_VALUES = (1, 2, 3, 5)
REPS = 3


def _sweep(metric):
    return build_sweep(n_values=N_VALUES, reps=REPS, metric=metric)


def _run(sweep, tmp_path, tag, workers, batch_size=None):
    path = tmp_path / f"{tag}.jsonl"
    plan = RunPlan(workers=workers, batch_size=batch_size, ledger=RunLedger(path))
    points = sweep.execute(plan)
    return points, path.read_bytes()


@pytest.fixture(scope="module")
def generator_reference(tmp_path_factory):
    """Per metric, the canonical sweep's points and ledger bytes with its
    cells run by the plain :class:`SweepCell`: it has no fused-lane hooks,
    so every cell runs through the generator runtime."""
    tmp_path = tmp_path_factory.mktemp("generator")
    reference = {}
    for metric in SWEEP_METRICS:
        sweep = _sweep(metric)
        cell = sweep.run_once
        plain = SweepCell(cell.protocol, cell.scheduler, cell.metric, cell.max_steps)
        assert not hasattr(plain, "batch_lane")
        plain_sweep = dataclasses.replace(sweep, run_once=plain)
        reference[metric] = _run(plain_sweep, tmp_path, metric, 1)
    return reference


@pytest.mark.parametrize("batch_size", [None, 1, 4, 16])
def test_sweep_ledger_bytes_identical_at_any_batch_size(
    tmp_path, generator_reference, batch_size
):
    for metric in SWEEP_METRICS:
        for workers in (0, 1):
            tag = f"{metric}-{batch_size}-{workers}"
            run = _run(_sweep(metric), tmp_path, tag, workers, batch_size)
            assert run == generator_reference[metric], tag


def test_sweep_batching_composes_with_workers(tmp_path, generator_reference):
    for metric in SWEEP_METRICS:
        for batch_size in (None, 1, 4, 16):
            tag = f"{metric}-{batch_size}"
            run = _run(_sweep(metric), tmp_path, tag, 2, batch_size)
            assert run == generator_reference[metric], tag


def test_sweep_reads_env_knob(tmp_path, monkeypatch, generator_reference):
    monkeypatch.setenv(BATCH_ENV, "4")
    run = _run(_sweep("steps"), tmp_path, "env", workers=1)
    assert run == generator_reference["steps"]


@pytest.mark.parametrize("workers", [1, 2])
def test_hooked_cells_run_as_lanes_without_a_batch_size(
    tmp_path, monkeypatch, workers
):
    # Spies log to files, so calls made in forked pool workers count too.
    lanes_log, cells_log = tmp_path / "lanes.log", tmp_path / "cells.log"
    run_lanes, run_cell = batch_engine.run_lanes, SweepCell.__call__

    def log(path, n, seed):
        with path.open("a") as out:
            out.write(f"{n} {seed} {os.getpid()}\n")

    def spy_lanes(specs, *args, **kwargs):
        for spec in specs:
            log(lanes_log, spec.n, spec.seed)
        return run_lanes(specs, *args, **kwargs)

    def spy_cell(self, n, seed):
        log(cells_log, n, seed)
        return run_cell(self, n, seed)

    monkeypatch.delenv(BATCH_ENV, raising=False)
    monkeypatch.setattr(batch_engine, "run_lanes", spy_lanes)
    monkeypatch.setattr(SweepCell, "__call__", spy_cell)
    build_sweep(n_values=(1, 2, 3), reps=4).execute(RunPlan(workers=workers))

    def calls(path):
        """The logged ``(n, seed)`` pairs, sorted, and the pids that ran them."""
        lines = path.read_text().splitlines()
        rows = [tuple(map(int, line.split())) for line in lines]
        return sorted(row[:2] for row in rows), {row[2] for row in rows}

    lanes, lane_pids = calls(lanes_log)
    cells, _ = calls(cells_log)
    assert lanes == [(n, seed) for n in (2, 3) for seed in range(4)]
    assert cells == [(1, seed) for seed in range(4)]
    # In-process every lane runs here; at workers=2 none does.
    assert (lane_pids == {os.getpid()}) == (workers == 1)


def test_repeat_runs_identical_when_batched():
    def run_once(seed):
        return float(
            AdsConsensus()
            .run(
                [seed % 2, (seed + 1) % 2],
                scheduler=RandomScheduler(seed=seed),
                seed=seed,
            )
            .total_steps
        )

    seeds = range(9)
    serial = repeat_runs(run_once, seeds, RunPlan(workers=0))
    batched = repeat_runs(run_once, seeds, RunPlan(workers=0, batch_size=4))
    assert batched == serial


def test_fuzz_report_identical_when_batched():
    kwargs = dict(
        n_values=(2, 3),
        runs_per_cell=3,
        schedulers={"random": lambda seed: RandomScheduler(seed=seed)},
        crash_probability=0.0,
    )
    serial = fuzz_consensus(AdsConsensus, plan=RunPlan(workers=0), **kwargs)
    batched = fuzz_consensus(
        AdsConsensus, plan=RunPlan(workers=0, batch_size=4), **kwargs
    )
    assert dataclasses.asdict(batched) == dataclasses.asdict(serial)
    assert batched.ok
