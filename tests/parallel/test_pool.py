"""Tests for the long-lived WorkerPool (repro.parallel.engine).

Every wait is bounded: calls run under task deadlines or a fail-fast
policy, process joins and death checks take timeouts, and each test then
asserts that the work completed.
"""

import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.parallel import WorkerPool, run_tasks, run_tasks_partial
from repro.resilience import FailurePolicy
from tests.parallel import pool_tasks

needs_proc = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc"
)


def _dead(pid: int) -> bool:
    """True once ``pid`` has exited (a zombie not yet reaped counts)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _wait_dead(pid: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not _dead(pid):
        assert time.monotonic() < deadline, f"pid {pid} still alive"
        time.sleep(0.01)


def _children(pids):
    return [p for p in multiprocessing.active_children() if p.pid in pids]


def test_consecutive_calls_reuse_the_same_two_workers():
    with WorkerPool(2) as pool:
        pids = set()
        for call in range(20):
            tasks = list(range(call, call + 6))
            out = run_tasks(pool_tasks.square_and_pid, tasks, workers=pool)
            assert [value for value, _ in out] == [t * t for t in tasks]
            pids.update(pid for _, pid in out)
    assert len(pids) <= 2
    assert os.getpid() not in pids


def test_timed_out_worker_is_replaced_and_the_next_call_succeeds():
    with WorkerPool(2) as pool:
        partial = run_tasks_partial(
            pool_tasks.chaos,
            [("ok", 1), ("hang", 2), ("ok", 3)],
            workers=pool,
            policy=FailurePolicy.continue_and_report(),
            task_timeout=1.0,
        )
        assert partial.results == [10, None, 30]
        assert [(e.index, e.exc_type) for e in partial.errors] == [(1, "TaskTimeout")]
        hung = partial.errors[0].worker_pid
        _wait_dead(hung)
        assert all(process.is_alive() for _, process in pool._idle)
        out = run_tasks(pool_tasks.square_and_pid, range(8), workers=pool)
    assert [value for value, _ in out] == [t * t for t in range(8)]
    assert hung not in {pid for _, pid in out}


@needs_proc
def test_idle_worker_killed_between_calls_costs_the_next_call_nothing():
    with WorkerPool(2) as pool:
        first = set(run_tasks(pool_tasks.pid, range(8), workers=pool))
        victim = min(first)
        os.kill(victim, signal.SIGKILL)
        _wait_dead(victim)
        partial = run_tasks_partial(
            pool_tasks.square_and_pid,
            range(8),
            workers=pool,
            policy=FailurePolicy.continue_and_report(),
        )
    assert partial.errors == []
    assert [value for value, _ in partial.results] == [t * t for t in range(8)]
    assert victim not in {pid for _, pid in partial.results}


def test_unpicklable_task_function_raises_before_any_task_runs():
    ran = []
    with WorkerPool(2) as pool:
        with pytest.raises(TypeError, match="does not pickle"):
            run_tasks(lambda task: ran.append(task), range(4), workers=pool)
        assert ran == []
        assert pool._live == set()  # not even a worker was started


def test_task_function_that_does_not_load_fails_every_task():
    with WorkerPool(2) as pool:
        partial = run_tasks_partial(
            pool_tasks.LoadsBadly(),
            range(3),
            workers=pool,
            policy=FailurePolicy.continue_and_report(),
        )
        assert partial.results == [None, None, None]
        assert {e.exc_type for e in partial.errors} == {"RuntimeError"}
        assert all("did not load" in e.message for e in partial.errors)
        # The workers survive it and run the next call.
        assert run_tasks(pool_tasks.pid, range(4), workers=pool)


def test_close_stops_every_worker_and_refuses_further_calls():
    pool = WorkerPool(2)
    pids = set(run_tasks(pool_tasks.pid, range(8), workers=pool))
    workers = _children(pids)
    assert len(workers) == 2
    pool.close()
    assert not any(worker.is_alive() for worker in workers)
    with pytest.raises(RuntimeError, match="closed"):
        run_tasks(pool_tasks.pid, range(8), workers=pool)


def test_stress_more_workers_than_cpus_under_raise_kill_and_hang():
    """Four workers on (typically) two CPUs, twenty calls mixing every
    failure a worker can see: each call still returns exactly the right
    result or error per task, in bounded time."""
    expected = {"raise": "ValueError", "kill": "WorkerDied", "hang": "TaskTimeout"}
    started = time.monotonic()
    seen = set()
    with WorkerPool(4) as pool:
        for call in range(20):
            tasks = [("ok", call * 10 + i) for i in range(5)]
            tasks.append(("raise", call))
            if call % 3 == 0:
                tasks.append(("kill", call))
            if call % 5 == 0:
                tasks.append(("hang", call))
            partial = run_tasks_partial(
                pool_tasks.chaos,
                tasks,
                workers=pool,
                policy=FailurePolicy.continue_and_report(),
                task_timeout=1.0,
            )
            errors = {e.index: e.exc_type for e in partial.errors}
            for index, (kind, value) in enumerate(tasks):
                if kind == "ok":
                    assert partial.results[index] == value * 10
                else:
                    assert partial.results[index] is None
                    assert errors[index] == expected[kind], (call, kind, errors)
            assert len(errors) == len(tasks) - 5
            # Killed and dead workers are never parked for the next call.
            assert all(process.is_alive() for _, process in pool._idle)
            seen.update(p.pid for p in multiprocessing.active_children())
        live = _children(seen)
    assert not any(worker.is_alive() for worker in live)
    assert time.monotonic() - started < 120
