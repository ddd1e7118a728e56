"""Every campaign entry point runs exactly as its :class:`RunPlan` says.

A spy on :func:`repro.parallel.engine.run_tasks_partial` records each
engine call.  For the library entry points (``repeat_runs``,
``build_sweep(...).execute``, ``fuzz_consensus``,
``run_mutation_campaign``) and the four serve job kinds (through
``Dispatcher.execute``), every call must carry the plan's ``workers``,
``batch_size``, ``policy``, ``task_timeout`` and ``metrics``, and every
fresh cell must land as a record in the plan's ledger.  The plan's
values are all non-defaults, so an entry point that drops a field hands
the engine the default instead and fails here.
"""

import pytest

from repro.analysis.experiment import repeat_runs
from repro.consensus import AdsConsensus
from repro.faults.campaign import run_mutation_campaign
from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry
from repro.parallel import engine
from repro.resilience import FailurePolicy, RetryBackoff, RunPlan
from repro.serve.dispatcher import Dispatcher
from repro.serve.queue import JobQueue, JobStates
from repro.serve.schemas import validate_spec
from repro.verify.fuzz import fuzz_consensus
from repro.workloads import build_sweep

ENGINE_FIELDS = ("workers", "batch_size", "policy", "task_timeout", "metrics")

#: In-process (one worker) keeps the test fast; a retry policy and a
#: deadline are still handed to the engine, which is what is checked.
POLICY = FailurePolicy.retry(max_attempts=2, backoff=RetryBackoff(base=0))


@pytest.fixture(autouse=True)
def _pinned_code_version(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-run-plan-v1")


@pytest.fixture
def engine_calls(monkeypatch):
    """``(task count, keyword arguments)`` of every engine call."""
    calls = []
    run_tasks_partial = engine.run_tasks_partial

    def spy(fn, tasks, **kwargs):
        tasks = list(tasks)
        calls.append((len(tasks), kwargs))
        return run_tasks_partial(fn, tasks, **kwargs)

    monkeypatch.setattr(engine, "run_tasks_partial", spy)
    return calls


@pytest.fixture
def plan(tmp_path):
    return RunPlan(
        workers=1,
        batch_size=3,
        policy=POLICY,
        task_timeout=30.0,
        metrics=MetricsRegistry(),
        progress=lambda done, total: None,
        ledger=RunLedger(tmp_path / "plan.jsonl"),
    )


def _assert_ran_as_planned(calls, plan):
    assert calls, "the entry point never reached the engine"
    for _, kwargs in calls:
        for name in ENGINE_FIELDS:
            assert kwargs[name] == getattr(plan, name), name
    fresh = sum(count for count, _ in calls)
    assert fresh > 0
    assert len(RunLedger(plan.ledger.path)) == fresh


def test_repeat_runs_runs_as_planned(engine_calls, plan):
    samples = repeat_runs(lambda seed: float(seed), range(4), plan, experiment="e")
    assert samples == [0.0, 1.0, 2.0, 3.0]
    _assert_ran_as_planned(engine_calls, plan)
    assert all(kwargs["progress"] is plan.progress for _, kwargs in engine_calls)


def test_sweep_runs_as_planned(engine_calls, plan):
    points = build_sweep(n_values=(2, 3), reps=2, max_steps=100_000).execute(plan)
    assert [len(point.samples) for point in points] == [2, 2]
    _assert_ran_as_planned(engine_calls, plan)
    assert all(kwargs["progress"] is plan.progress for _, kwargs in engine_calls)


def test_fuzz_runs_as_planned(engine_calls, plan):
    report = fuzz_consensus(AdsConsensus, n_values=(2,), runs_per_cell=1, plan=plan)
    assert report.ok
    _assert_ran_as_planned(engine_calls, plan)
    assert all(kwargs["progress"] is plan.progress for _, kwargs in engine_calls)


def test_mutation_campaign_runs_as_planned(engine_calls, plan):
    report = run_mutation_campaign(consensus_max_steps=50_000, plan=plan)
    assert report.ok
    _assert_ran_as_planned(engine_calls, plan)
    assert all(kwargs["progress"] is plan.progress for _, kwargs in engine_calls)


@pytest.mark.parametrize(
    "kind, params, ticking",
    [
        ("sweep", {"n_values": [2, 3], "reps": 2, "max_steps": 100_000}, [True]),
        ("fuzz", {"n_values": [2], "runs_per_cell": 1}, [True]),
        # A campaign job ticks once, when it is done; a chaos job ticks
        # only through its recovery fuzz (campaign, recovery, faults).
        ("campaign", {"consensus_max_steps": 50_000}, [False]),
        ("chaos", {"runs_per_cell": 2}, [False, True, False]),
    ],
)
def test_serve_jobs_run_as_planned(engine_calls, tmp_path, kind, params, ticking):
    # The server has no batch-size setting: its plan leaves the unit to
    # the engine (and REPRO_BATCH).
    plan = RunPlan(
        workers=1,
        policy=POLICY,
        task_timeout=30.0,
        metrics=MetricsRegistry(enabled=True),
        ledger=RunLedger(tmp_path / "ledger.jsonl"),
    )
    queue = JobQueue(tmp_path / "jobs.jsonl")
    dispatcher = Dispatcher(
        queue,
        ledger_path=plan.ledger.path,
        workers=plan.workers,
        policy=plan.policy,
        task_timeout=plan.task_timeout,
        metrics=plan.metrics,
    )
    queue.submit("job", validate_spec({"kind": kind, "params": params}))
    dispatcher.execute(queue.claim())
    job = queue.get("job")
    assert job.state == JobStates.DONE, job.error
    _assert_ran_as_planned(engine_calls, plan)
    assert [kwargs["progress"] is not None for _, kwargs in engine_calls] == ticking
    assert job.progress["done"] == job.progress["total"] > 0
