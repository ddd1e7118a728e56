"""Tests for the process-pool execution engine (repro.parallel)."""

import os

import pytest

from repro.parallel import (
    ParallelExecutionError,
    available_workers,
    resolve_workers,
    run_tasks,
    run_tasks_partial,
)
from repro.parallel.engine import WORKERS_ENV, _describe_task, _fork_available

needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="fork start method unavailable"
)


def _square(task):
    return task * task


def _fail_on_three(task):
    if task == 3:
        raise ValueError(f"boom on {task}")
    return task * 10


def _exit_on_three(task):
    if task == 3:
        os._exit(17)
    return task


# -- worker-count resolution -------------------------------------------------


def test_resolve_workers_defaults_to_serial(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers(None) == 1


def test_resolve_workers_reads_environment(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "3")
    assert resolve_workers(None) == 3


def test_resolve_workers_zero_means_all_cpus(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers(0) == available_workers()
    assert resolve_workers(0) >= 1


def test_resolve_workers_rejects_negative():
    with pytest.raises(ValueError):
        resolve_workers(-2)


def test_explicit_workers_beat_environment(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "7")
    assert resolve_workers(2) == 2


# -- results and ordering ----------------------------------------------------


def test_serial_path_matches_list_comprehension():
    tasks = list(range(20))
    assert run_tasks(_square, tasks, workers=1) == [t * t for t in tasks]


@needs_fork
def test_parallel_results_in_submission_order():
    tasks = list(range(23))
    assert run_tasks(_square, tasks, workers=2) == [t * t for t in tasks]


@needs_fork
def test_parallel_matches_serial_for_any_batch_size():
    tasks = list(range(10))
    serial = run_tasks(_square, tasks, workers=1)
    for batch_size in (1, 3, 10, 100):
        assert run_tasks(_square, tasks, workers=2, batch_size=batch_size) == serial


@needs_fork
def test_closures_need_not_pickle():
    offset = 1000
    tasks = list(range(8))
    out = run_tasks(lambda t: t + offset, tasks, workers=2)
    assert out == [t + offset for t in tasks]


def test_single_task_short_circuits_to_serial():
    assert run_tasks(_square, [5], workers=4) == [25]


def test_empty_task_list():
    assert run_tasks(_square, [], workers=4) == []


# -- progress ----------------------------------------------------------------


def test_serial_progress_reports_every_task():
    calls = []
    run_tasks(
        _square,
        list(range(5)),
        workers=1,
        progress=lambda d, t: calls.append((d, t)),
    )
    assert calls == [(i, 5) for i in range(1, 6)]


@needs_fork
def test_parallel_progress_is_monotonic_and_complete():
    calls = []
    run_tasks(
        _square,
        list(range(12)),
        workers=2,
        batch_size=3,
        progress=lambda d, t: calls.append((d, t)),
    )
    dones = [d for d, _ in calls]
    assert dones == sorted(dones)
    assert calls[-1] == (12, 12)
    assert all(t == 12 for _, t in calls)


# -- structured failures -----------------------------------------------------


def test_serial_task_error_is_structured():
    with pytest.raises(ParallelExecutionError) as info:
        run_tasks(_fail_on_three, [1, 2, 3, 4], workers=1)
    errors = info.value.errors
    assert len(errors) == 1
    assert errors[0].index == 2
    assert errors[0].exc_type == "ValueError"
    assert "boom on 3" in errors[0].message
    assert errors[0].worker_pid == os.getpid()
    assert "ValueError" in errors[0].traceback


@needs_fork
def test_parallel_task_error_survivors_unaffected():
    with pytest.raises(ParallelExecutionError) as info:
        run_tasks(_fail_on_three, [1, 2, 3, 4, 5, 6], workers=2, batch_size=1)
    errors = info.value.errors
    assert [e.index for e in errors] == [2]
    assert errors[0].exc_type == "ValueError"
    assert errors[0].worker_pid > 0


def test_task_error_extracts_seed_from_tuple_tasks():
    with pytest.raises(ParallelExecutionError) as info:
        run_tasks(lambda t: 1 / 0, [("ads", 42)], workers=1)
    error = info.value.errors[0]
    assert error.seed == 42
    assert "ads" in error.params


def test_describe_task_truncates_huge_params():
    text, seed = _describe_task(("x" * 500, 7))
    assert len(text) <= 200
    assert seed == 7


@needs_fork
def test_worker_process_death_surfaces_and_does_not_hang():
    with pytest.raises(ParallelExecutionError) as info:
        run_tasks(_exit_on_three, [1, 2, 3, 4, 5, 6], workers=2, batch_size=1)
    errors = info.value.errors
    assert errors, "a dead worker must produce structured errors"
    # Only the unit the dying worker held is lost: it is charged
    # WorkerDied under that worker's real pid.
    assert [e.index for e in errors] == [2]
    assert errors[0].exc_type == "WorkerDied"
    assert errors[0].worker_pid > 0


@needs_fork
def test_workers_persist_across_units():
    pids = run_tasks(
        lambda task: os.getpid(), list(range(40)), workers=2, batch_size=2
    )
    assert len(set(pids)) <= 2
    assert os.getpid() not in pids


@needs_fork
def test_worker_death_charges_its_whole_unit_only():
    partial = run_tasks_partial(
        _exit_on_three, list(range(9)), workers=2, batch_size=3
    )
    # Task 3 kills the worker holding unit [3, 4, 5]: all three tasks are
    # charged WorkerDied, and every other unit keeps its results.
    assert [e.index for e in partial.errors] == [3, 4, 5]
    assert {e.exc_type for e in partial.errors} == {"WorkerDied"}
    assert partial.results == [0, 1, 2, None, None, None, 6, 7, 8]


def test_error_message_lists_failures():
    with pytest.raises(ParallelExecutionError) as info:
        run_tasks(_fail_on_three, [3], workers=1)
    message = str(info.value)
    assert "task #0" in message
    assert "ValueError" in message


# -- engine self-metrics ------------------------------------------------------


def test_serial_run_records_dispatch_metrics():
    from repro import MetricsRegistry

    registry = MetricsRegistry()
    run_tasks(_square, [1, 2, 3], workers=1, metrics=registry)
    snapshot = registry.snapshot()
    assert snapshot.counters["parallel.tasks"] == 3
    assert snapshot.counters["parallel.chunks"] == 1
    assert snapshot.counters["parallel.task_failures"] == 0
    assert snapshot.gauges["parallel.workers"] == 1


@needs_fork
def test_parallel_run_records_chunks_and_workers():
    from repro import MetricsRegistry

    registry = MetricsRegistry()
    run_tasks(_square, list(range(8)), workers=2, batch_size=2, metrics=registry)
    snapshot = registry.snapshot()
    assert snapshot.counters["parallel.tasks"] == 8
    assert snapshot.counters["parallel.chunks"] == 4
    assert snapshot.gauges["parallel.workers"] == 2


def test_failures_counted_even_when_the_run_raises():
    from repro import MetricsRegistry

    registry = MetricsRegistry()
    with pytest.raises(ParallelExecutionError):
        run_tasks(_fail_on_three, [1, 3], workers=1, metrics=registry)
    assert registry.snapshot().counters["parallel.task_failures"] == 1


def test_disabled_registry_records_nothing():
    from repro import MetricsRegistry

    registry = MetricsRegistry(enabled=False)
    run_tasks(_square, [1], workers=1, metrics=registry)
    assert registry.snapshot().counters == {}
