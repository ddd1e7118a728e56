"""The dispatcher thread: drains the job queue onto the resilient engine.

One daemon thread claims jobs oldest-first and executes them through
the *same* workload builders the CLI uses (:mod:`repro.workloads`), so
a job's ledger records are byte-identical to the equivalent CLI run.
The dispatcher keeps one :class:`~repro.obs.ledger.RunLedger` handle on
the server's ledger file for its lifetime and refreshes it as each job
starts, so it reads only the lines appended since the previous job —
including a concurrent CLI run's.  Cells the ledger already holds are
cache hits, fresh cells checkpoint incrementally via the experiment
layer's :class:`~repro.resilience.checkpoint.LedgerCheckpointer` — which
is exactly what makes a SIGTERM survivable: the killed server leaves a
valid submission-order ledger prefix, the restarted one requeues the
job and recomputes only the missing fingerprints.

Jobs run under the server's
:class:`~repro.resilience.policy.FailurePolicy` (continue-and-report by
default).  At ``workers > 1`` every job runs on one
:class:`~repro.parallel.WorkerPool` that lives as long as the
dispatcher: its *daemon* workers are spawned on the first job that needs
them and wait idle between jobs.  :meth:`Dispatcher.stop` stops them; a
worker whose server vanished (SIGTERM exits at once) reads EOF on its
pipe and exits — idle at once, busy after the unit it was running.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import traceback
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.ledger import LedgerRecord, RunLedger
from repro.parallel import WorkerPool, resolve_workers
from repro.resilience.checkpoint import RunPlan
from repro.serve.queue import Job, JobQueue

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
    from repro.resilience import AdmissionController, FailurePolicy
    from repro.serve.telemetry import TelemetryHub

#: Engine counters diffed per job into the job's progress/result.
_RESILIENCE_COUNTERS = (
    "resilience.retries",
    "resilience.timeouts",
    "resilience.shed",
)


class _TimedLedger(RunLedger):
    """A :class:`RunLedger` that timestamps its own appends.

    The dispatcher hands its one instance to the workload builders; the
    experiment layer's :class:`~repro.resilience.checkpoint.
    LedgerCheckpointer` flushes each settled unit through
    :meth:`~repro.obs.ledger.RunLedger.append_all`, which passes every
    record through :meth:`append`, so the first/last append times
    bracket the job's checkpointing activity — which the dispatcher then
    emits as the job's ``checkpoint`` span in the job trace.  :meth:`begin_job`
    zeroes that accounting, and the cache hits and misses, per job.
    """

    def __init__(self, path: Any, clock: Callable[[], float] = time.time):
        super().__init__(path)
        self.clock = clock
        self.first_append: float | None = None
        self.last_append: float | None = None
        self.appended = 0

    def begin_job(self) -> None:
        """Index what other writers appended since the previous job and
        start this job's accounting from zero."""
        self.refresh()
        self.hits = self.misses = self.appended = 0
        self.first_append = self.last_append = None

    def append(self, record: LedgerRecord) -> bool:
        wrote = super().append(record)
        if wrote:
            now = self.clock()
            if self.first_append is None:
                self.first_append = now
            self.last_append = now
            self.appended += 1
        return wrote


class Dispatcher(threading.Thread):
    """Single-consumer worker loop over a :class:`JobQueue`.

    Args:
        queue: the persistent job queue.
        ledger_path: the server's run ledger file (every job appends to
            this one store, under the cross-process file lock).
        workers: engine worker processes, shared by all jobs (0 = all
            CPUs; 1 = in-process).  From 2 on they form one
            :class:`~repro.parallel.WorkerPool` for the dispatcher's
            lifetime.
        policy: failure policy every job runs under (default
            continue-and-report).
        task_timeout: optional per-cell wall-clock deadline (seconds).
        admission: the server's admission controller; completed job
            results are charged against its budget here.
        metrics: the server's registry; engine and job counters land in
            it and surface through ``GET /metrics``.
        telemetry: the server's :class:`~repro.serve.telemetry.
            TelemetryHub`; the dispatcher contributes the per-job
            ``checkpoint`` span and retry/timeout/shed instants to the
            job trace (lifecycle spans come from the queue listener).
    """

    def __init__(
        self,
        queue: JobQueue,
        *,
        ledger_path: Any,
        workers: int = 1,
        policy: "FailurePolicy | None" = None,
        task_timeout: float | None = None,
        admission: "AdmissionController | None" = None,
        metrics: "MetricsRegistry | None" = None,
        telemetry: "TelemetryHub | None" = None,
    ):
        super().__init__(name="repro-serve-dispatcher", daemon=True)
        from repro.resilience import FailurePolicy

        self.queue = queue
        self.ledger = _TimedLedger(ledger_path)
        self.workers = resolve_workers(workers)
        self.pool = WorkerPool(self.workers) if self.workers > 1 else None
        #: How every job executes; each job adds its own progress ticks.
        self.plan = RunPlan(
            workers=self.pool or self.workers,
            policy=policy or FailurePolicy.continue_and_report(),
            task_timeout=task_timeout,
            metrics=metrics,
            ledger=self.ledger,
        )
        self.admission = admission
        self.metrics = metrics
        self.telemetry = telemetry
        self._halt = threading.Event()

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        """Stop claiming jobs and stop the pool's workers.  A job still
        running stays RUNNING in the job log, to be requeued at the next
        boot."""
        self._halt.set()
        self.queue.wake.set()
        if self.pool is not None:
            self.pool.close()

    def run(self) -> None:  # pragma: no cover - exercised via the server
        while not self._halt.is_set():
            job = self.queue.claim()
            if job is None:
                self.queue.wake.wait(timeout=0.2)
                continue
            self.execute(job)

    # -- execution -----------------------------------------------------------

    def execute(self, job: Job) -> None:
        """Run one claimed job to a terminal state (DONE or FAILED)."""
        before = self._resilience_totals()
        try:
            result = self._run_spec(job)
        except Exception as exc:  # noqa: BLE001 - any job error is terminal
            if self._halt.is_set():
                return  # stopped under it: left for the next boot's requeue
            detail = traceback.format_exc(limit=4)
            self._trace_resilience(job, self._resilience_delta(before))
            self._count_job("failed")
            self.queue.fail(job.id, f"{type(exc).__name__}: {exc}\n{detail}")
            return
        if self._halt.is_set():
            return  # its workers may have been killed mid-job
        result["resilience"] = self._resilience_delta(before)
        self._trace_resilience(job, result["resilience"])
        self._count_job("done")
        self.queue.finish(job.id, result)
        if self.admission is not None:
            self.admission.charge(result)

    def _run_spec(self, job: Job) -> dict[str, Any]:
        kind = job.spec["kind"]
        params = job.spec["params"]
        # The refresh sees everything on disk — including records a
        # concurrent CLI run appended since the last job.
        ledger = self.ledger
        ledger.begin_job()
        runner = {
            "sweep": self._run_sweep,
            "fuzz": self._run_fuzz,
            "campaign": self._run_campaign,
            "chaos": self._run_chaos,
        }[kind]
        plan = dataclasses.replace(self.plan, progress=self._progress(job))
        result = runner(params, plan)
        result["cache_hits"] = ledger.hits
        result["recomputed"] = ledger.misses
        if self.telemetry is not None and ledger.first_append is not None:
            # One span bracketing the job's incremental checkpointing —
            # the last leg of the correlation-id chain (queue-wait →
            # dispatch → tasks → checkpoint).
            self.telemetry.tracer.span(
                job.id,
                "checkpoint",
                ledger.first_append,
                ledger.last_append or ledger.first_append,
                records=ledger.appended,
                cache_hits=ledger.hits,
                recomputed=ledger.misses,
            )
        return result

    def _trace_resilience(self, job: Job, delta: dict[str, int]) -> None:
        """Emit one instant per resilience kind the job tripped."""
        if self.telemetry is None:
            return
        for kind, name in (
            ("retries", "retry"),
            ("timeouts", "timeout"),
            ("shed", "shed"),
        ):
            count = delta.get(kind, 0)
            if count:
                self.telemetry.tracer.instant(
                    job.id, name, count=count, scope="task"
                )

    def _progress(self, job: Job) -> Callable[[int, int], None]:
        def progress(done: int, total: int) -> None:
            self.queue.update_progress(job.id, done=done, total=total)

        return progress

    def _run_sweep(self, params: dict[str, Any], plan: RunPlan) -> dict[str, Any]:
        from repro.analysis.experiment import sweep_table
        from repro.workloads import build_sweep

        sweep = build_sweep(
            protocol=params["protocol"],
            n_values=params["n_values"],
            reps=params["reps"],
            seed_base=params["seed_base"],
            scheduler=params["scheduler"],
            metric=params["metric"],
            max_steps=params["max_steps"],
        )
        points = sweep.execute(plan)
        samples = [value for point in points for value in point.samples]
        return {
            "kind": "sweep",
            "ok": True,
            "experiment": sweep.experiment,
            "table": sweep_table(points),
            "cells": len(samples),
            "steps_total": (
                int(sum(samples)) if params["metric"] == "steps" else 0
            ),
        }

    def _run_fuzz(self, params: dict[str, Any], plan: RunPlan) -> dict[str, Any]:
        from repro.verify.fuzz import fuzz_consensus
        from repro.workloads import PROTOCOLS

        report = fuzz_consensus(
            PROTOCOLS[params["protocol"]],
            n_values=params["n_values"],
            runs_per_cell=params["runs_per_cell"],
            crash_probability=params["crash_probability"],
            recovery_probability=params["recovery_probability"],
            fault_probability=params["fault_probability"],
            master_seed=params["seed"],
            plan=plan,
            experiment="fuzz",
        )
        return {
            "kind": "fuzz",
            "ok": report.ok,
            "summary": report.summary(),
            "runs": report.runs,
            "failures": [str(failure) for failure in report.failures],
            "task_errors": report.task_errors,
            "steps_total": report.steps_total,
        }

    def _run_campaign(self, params: dict[str, Any], plan: RunPlan) -> dict[str, Any]:
        from repro.faults.campaign import run_mutation_campaign

        # A campaign job ticks its progress once, when it is done.
        report = run_mutation_campaign(
            seed=params["seed"],
            consensus_max_steps=params["consensus_max_steps"],
            plan=self.plan,
            experiment="campaign",
        )
        rows = report.to_rows()
        plan.progress(len(rows), len(rows))
        return {
            "kind": "campaign",
            "ok": report.ok,
            "rows": rows,
            "holes": sorted(report.holes),
            "task_errors": report.task_errors,
        }

    def _run_chaos(self, params: dict[str, Any], plan: RunPlan) -> dict[str, Any]:
        """The three ``repro chaos`` stages (see
        :func:`repro.workloads.run_chaos`), so serve chaos jobs cache-hit
        prior CLI chaos runs."""
        from repro.workloads import run_chaos

        campaign, recovery, faults = run_chaos(
            params["seed"], params["runs_per_cell"], plan
        )
        ok = campaign.ok and recovery.ok and faults.ok
        return {
            "kind": "chaos",
            "ok": ok,
            "campaign": {
                "ok": campaign.ok,
                "holes": sorted(campaign.holes),
                "task_errors": campaign.task_errors,
            },
            "recovery": recovery.summary(),
            "faults": faults.summary(),
            "steps_total": recovery.steps_total + faults.steps_total,
        }

    # -- accounting ----------------------------------------------------------

    def _count_job(self, state: str) -> None:
        if self.metrics is not None:
            self.metrics.counter("serve.jobs", state=state).inc()

    def _resilience_totals(self) -> dict[str, int]:
        if self.metrics is None:
            return {}
        return {
            name: self.metrics.counter_total(name)
            for name in _RESILIENCE_COUNTERS
        }

    def _resilience_delta(self, before: dict[str, int]) -> dict[str, int]:
        after = self._resilience_totals()
        return {
            name.split(".", 1)[1]: after[name] - before.get(name, 0)
            for name in after
        }
