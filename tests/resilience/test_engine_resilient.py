"""The resilient execution paths of the parallel engine.

Every scenario asserts the determinism contract from the engine's
docstring: retried tasks re-run from their original seed, so a campaign
that completes merges bit-identically to an undisturbed run.
"""

import os
import signal
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.parallel import (
    ParallelExecutionError,
    available_workers,
    run_tasks,
    run_tasks_partial,
)
from repro.parallel.engine import _fork_available
from repro.resilience import (
    AdmissionController,
    CampaignBudget,
    CrashOnce,
    FailurePolicy,
    RetryBackoff,
)

needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="fork start method unavailable"
)

#: Retry policy with sleeping disabled — the test configuration.
FAST_RETRY = FailurePolicy.retry(max_attempts=3, backoff=RetryBackoff(base=0))


def _square(task):
    return task * task


def _fail_on_three(task):
    if task == 3:
        raise ValueError(f"boom on {task}")
    return task * 10


def _sleep_forever(task):
    time.sleep(3600)
    return task


# -- continue mode: holes instead of exceptions -------------------------------


@pytest.mark.parametrize("workers", [1, pytest.param(3, marks=needs_fork)])
def test_continue_mode_leaves_holes(workers):
    partial = run_tasks_partial(
        _fail_on_three,
        [1, 2, 3, 4, 5],
        workers=workers,
        policy=FailurePolicy.continue_and_report(),
    )
    assert partial.results == [10, 20, None, 40, 50]
    assert partial.failed_indices == [2]
    assert partial.errors[0].exc_type == "ValueError"
    assert not partial.ok
    assert partial.completed == 4


def test_run_tasks_rejects_continue_mode():
    with pytest.raises(ValueError, match="run_tasks_partial"):
        run_tasks(
            _square, [1, 2], policy=FailurePolicy.continue_and_report()
        )


# -- retries ------------------------------------------------------------------


def test_serial_retry_recovers_transient_failure():
    failures = {"left": 2}

    def flaky(task):
        if task == 2 and failures["left"] > 0:
            failures["left"] -= 1
            raise RuntimeError("transient")
        return task * task

    partial = run_tasks_partial(
        flaky, [1, 2, 3], workers=1, policy=FAST_RETRY
    )
    assert partial.ok
    assert partial.results == [1, 4, 9]
    assert partial.retries == 2


def test_serial_retry_exhaustion_reports_the_error():
    partial = run_tasks_partial(
        _fail_on_three, [1, 2, 3], workers=1, policy=FAST_RETRY
    )
    assert partial.failed_indices == [2]
    assert partial.retries == 2  # two re-dispatches before giving up


@needs_fork
def test_retry_recovers_sigkilled_worker_bit_identical(tmp_path):
    crashing = CrashOnce(_square, tmp_path / "crashed")
    tasks = list(range(8))
    partial = run_tasks_partial(
        crashing, tasks, workers=2, policy=FAST_RETRY
    )
    assert (tmp_path / "crashed").exists()  # the crash actually fired
    assert partial.retries >= 1
    assert partial.ok
    assert partial.results == [_square(t) for t in tasks]  # bit-identical


@needs_fork
def test_worker_death_without_retries_is_a_structured_error(tmp_path):
    crashing = CrashOnce(_square, tmp_path / "crashed")
    with pytest.raises(ParallelExecutionError) as excinfo:
        run_tasks(
            crashing,
            list(range(8)),
            workers=2,
            policy=FailurePolicy(
                mode="retry", max_attempts=1, backoff=RetryBackoff(base=0)
            ),
        )
    assert any(e.exc_type == "WorkerDied" for e in excinfo.value.errors)


# -- timeouts -----------------------------------------------------------------


@needs_fork
def test_timeout_kills_the_hung_worker():
    partial = run_tasks_partial(
        _sleep_forever,
        [1, 2],
        workers=2,
        policy=FailurePolicy.continue_and_report(),
        task_timeout=0.2,
    )
    assert partial.timeouts == 2
    assert partial.results == [None, None]
    assert {e.exc_type for e in partial.errors} == {"TaskTimeout"}


@needs_fork
def test_timeout_spares_fast_tasks():
    def mixed(task):
        if task == "slow":
            time.sleep(3600)
        return task

    partial = run_tasks_partial(
        mixed,
        ["a", "slow", "b"],
        workers=3,
        policy=FailurePolicy.continue_and_report(),
        task_timeout=0.5,
    )
    assert partial.results == ["a", None, "b"]
    assert partial.timeouts == 1


@needs_fork
def test_retry_timeouts_false_fails_immediately():
    partial = run_tasks_partial(
        _sleep_forever,
        [1, 2],
        workers=2,
        policy=FailurePolicy.retry(
            max_attempts=3, backoff=RetryBackoff(base=0), retry_timeouts=False
        ),
        task_timeout=0.2,
    )
    assert partial.retries == 0
    assert partial.timeouts == 2


# -- a single task at workers >= 2 still runs supervised ----------------------


def _hang(task):
    """A bounded :func:`_sleep_forever`: a regression fails, not stalls."""
    time.sleep(60)
    return task


@needs_fork
def test_single_task_deadline_is_enforced():
    started = time.monotonic()
    partial = run_tasks_partial(
        _hang,
        [1],
        workers=2,
        task_timeout=0.2,
        policy=FailurePolicy.continue_and_report(),
    )
    assert time.monotonic() - started < 10
    assert partial.timeouts == 1
    assert [e.exc_type for e in partial.errors] == ["TaskTimeout"]


@needs_fork
def test_single_task_worker_crash_is_retried_not_fatal(tmp_path):
    # Run in-process, this crash would SIGKILL the caller.
    crashing = CrashOnce(_square, tmp_path / "crashed")
    partial = run_tasks_partial(crashing, [7], workers=2, policy=FAST_RETRY)
    assert (tmp_path / "crashed").exists()
    assert partial.results == [49]
    assert partial.retries == 1


# -- persistent workers under mixed failures ----------------------------------


class _FailOnce:
    """Squares its task, but fails each planned task once: by raising, by
    SIGKILLing its worker, or by hanging past the deadline.  "Once" is
    kept on disk, so it holds across worker processes."""

    def __init__(self, directory, plan):
        self.directory = directory
        self.plan = plan

    def __call__(self, task):
        kind = self.plan.get(task)
        if kind is not None:
            try:
                os.close(os.open(self.directory / str(task), os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                kind = None
        if kind == "raise":
            raise RuntimeError(f"transient failure of {task}")
        if kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        if kind == "hang":
            time.sleep(60)
        return task * task


@needs_fork
@pytest.mark.parametrize("batch_size", [None, 3])
def test_pool_recovers_mixed_failures_with_more_workers_than_cores(
    tmp_path, batch_size
):
    task = _FailOnce(tmp_path, {4: "raise", 10: "kill", 20: "hang", 31: "kill"})
    started = time.monotonic()
    partial = run_tasks_partial(
        task,
        list(range(40)),
        workers=2 * available_workers() + 1,
        batch_size=batch_size,
        policy=FAST_RETRY,
        task_timeout=1.0,
    )
    assert time.monotonic() - started < 30
    assert partial.ok
    assert partial.results == [t * t for t in range(40)]
    # Each failure sits in its own unit, and each unit is retried once.
    assert partial.retries == 4
    assert partial.timeouts == 1


# -- admission control through the engine -------------------------------------


@pytest.mark.parametrize("workers", [1, pytest.param(3, marks=needs_fork)])
def test_admission_sheds_tail_tasks(workers):
    controller = AdmissionController(
        CampaignBudget(max_tasks=3, soft_fraction=1.0)
    )
    partial = run_tasks_partial(
        _square,
        [1, 2, 3, 4, 5],
        workers=workers,
        policy=FailurePolicy.continue_and_report(),
        admission=controller,
    )
    assert partial.results == [1, 4, 9, None, None]
    assert partial.shed == 2
    assert partial.shed_indices == [3, 4]
    assert not partial.errors  # shed is not failure


# -- metrics and on_result hooks ----------------------------------------------


def test_resilience_counters_flow_into_metrics():
    metrics = MetricsRegistry(enabled=True)
    run_tasks_partial(
        _fail_on_three,
        [1, 2, 3],
        workers=1,
        policy=FailurePolicy.continue_and_report(max_attempts=2),
        metrics=metrics,
    )
    snapshot = metrics.snapshot()
    assert snapshot.counter_total("resilience.retries") == 1
    # Nothing timed out or was shed: those counters stay unrecorded so
    # undisturbed runs keep byte-identical snapshots.
    assert snapshot.counter_total("resilience.timeouts") == 0
    assert snapshot.counter_total("resilience.shed") == 0


@pytest.mark.parametrize("workers", [1, pytest.param(3, marks=needs_fork)])
def test_on_result_sees_every_success_exactly_once(workers):
    seen = {}

    def record(results):
        for index, value in results:
            assert index not in seen
            seen[index] = value

    run_tasks_partial(
        _square, [1, 2, 3, 4], workers=workers, on_result=record
    )
    assert seen == {0: 1, 1: 4, 2: 9, 3: 16}
