"""The persistent job queue: an append-only JSONL event log.

Jobs never mutate in place on disk — every lifecycle transition appends
one event line (``submit`` carries the canonical spec, ``state``
carries the transition plus its payload), through the same
exclusive-lock append path as the run ledger
(:func:`repro.obs.ledger.locked_append`), so concurrent writers
interleave whole lines and a crash tears at most the trailing line.
Boot replays the log through the same function that applies each live
event once it is appended, so memory always equals a replay of the log;
jobs that were ``RUNNING`` when the process died are requeued by a
logged transition like any other (their ledger checkpoint makes the
re-run recompute only missing cells).

States::

                    submit            claim          finish
    (new) ──────────────────▶ QUEUED ───────▶ RUNNING ───────▶ DONE
              shed at admission │ ▲              │ fail
    SHED ◀──────────────────────┘ │ requeue      ▼
      └───────────────────────────┤           FAILED
                                  └──────────────┘

``DONE`` is terminal and answers repeat submissions from its stored
result; ``FAILED``/``SHED`` are terminal but resubmittable (the next
identical POST requeues them).
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.obs.ledger import locked_append, read_jsonl


class JobLogCorruption(ValueError):
    """A job log line this reader refuses; message leads with
    ``<file>:<line>:`` so damage is diagnosable from CI artifacts."""


class JobStates:
    """The five lifecycle states (string constants, stored verbatim)."""

    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    SHED = "SHED"

    ALL = (QUEUED, RUNNING, DONE, FAILED, SHED)
    #: States a repeat submission may move back to ``QUEUED``.
    RESUBMITTABLE = (FAILED, SHED)


@dataclass
class Job:
    """One job's full in-memory state (the log replayed forward)."""

    id: str
    spec: dict[str, Any]
    state: str = JobStates.QUEUED
    submitted_at: float = 0.0
    updated_at: float = 0.0
    attempts: int = 0
    #: Live progress (volatile — updated in memory as cells complete,
    #: never logged; a restart recomputes it from the ledger instead).
    progress: dict[str, Any] = field(default_factory=dict)
    result: dict[str, Any] | None = None
    error: str = ""
    reason: str = ""

    def snapshot(self) -> dict[str, Any]:
        """The API's ``GET /jobs/{id}`` body (result served separately)."""
        payload: dict[str, Any] = {
            "id": self.id,
            "kind": self.spec.get("kind"),
            "priority": self.spec.get("priority"),
            "state": self.state,
            "submitted_at": self.submitted_at,
            "updated_at": self.updated_at,
            "attempts": self.attempts,
            "progress": dict(self.progress),
        }
        if self.error:
            payload["error"] = self.error
        if self.reason:
            payload["reason"] = self.reason
        return payload


class JobQueue:
    """Thread-safe job registry backed by the JSONL event log.

    All mutation goes through methods that append the matching event
    under one lock, so the log is always a faithful serialization of
    the transitions taken.  ``wake`` is set whenever work may be
    available; the dispatcher waits on it instead of polling hot.

    ``listener`` is the telemetry seam: when set, it is called as
    ``listener(event, job)`` after each live transition (``submit`` /
    ``requeue`` / ``claim`` / ``finish`` / ``fail`` / ``shed``) and on
    every ``progress`` update — *outside* the queue lock, so a slow
    listener can delay its caller but never deadlock the queue.  Boot
    replay is silent by design: the listener observes what happens,
    not what once happened.
    """

    def __init__(
        self, path: str | pathlib.Path, requeue_running: bool = True
    ):
        self.path = pathlib.Path(path)
        self.requeue_running = requeue_running
        self._lock = threading.Lock()
        self.wake = threading.Event()
        self.listener: Callable[[str, Job], None] | None = None
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._load()

    def _notify(self, event: str, job: Job | None) -> None:
        if job is not None and self.listener is not None:
            self.listener(event, job)

    # -- persistence ---------------------------------------------------------

    def _log(self, event: dict[str, Any]) -> Job:
        """Append ``event`` to the log, then :meth:`_apply` it: every live
        transition, so memory always equals a replay of the log."""
        locked_append(self.path, json.dumps(event, sort_keys=True) + "\n")
        return self._apply(event)

    def _load(self) -> None:
        for lineno, event in read_jsonl(self.path, JobLogCorruption, "job-log"):
            try:
                self._apply(event)
            except (KeyError, TypeError, ValueError) as exc:
                raise JobLogCorruption(
                    f"{self.path}:{lineno}: job-log event invalid "
                    f"({type(exc).__name__}: {exc})"
                ) from None
        # Jobs the dead server left RUNNING go back in line: their ledger
        # checkpoint means the re-run recomputes only the missing suffix.
        # (Read-only consumers — `repro report --jobs-log` — pass
        # requeue_running=False so projecting the log never mutates it.)
        for job in self._jobs.values():
            if self.requeue_running and job.state == JobStates.RUNNING:
                self._transition(job, JobStates.QUEUED, reason="requeued after restart")
        if any(j.state == JobStates.QUEUED for j in self._jobs.values()):
            self.wake.set()

    def _apply(self, event: dict[str, Any]) -> Job:
        """Apply one logged event to the in-memory state and return its
        job: the one transition rule, for boot replay and live events."""
        kind = event["event"]
        if kind == "submit":
            job = Job(
                id=event["job"],
                spec=dict(event["spec"]),
                submitted_at=float(event["at"]),
                updated_at=float(event["at"]),
            )
            if job.id not in self._jobs:
                self._order.append(job.id)
            self._jobs[job.id] = job
        elif kind == "state":
            job = self._jobs[event["job"]]
            state = event["state"]
            if state not in JobStates.ALL:
                raise ValueError(f"unknown job state {state!r}")
            job.state = state
            job.updated_at = float(event["at"])
            job.error = event.get("error", "")
            job.reason = event.get("reason", "")
            if state == JobStates.RUNNING:
                job.attempts += 1
            if state == JobStates.DONE:
                job.result = event.get("result")
        else:
            raise ValueError(f"unknown job-log event {kind!r}")
        return job

    # -- transitions ---------------------------------------------------------

    def submit(self, job_id: str, spec: dict[str, Any]) -> Job:
        """Enqueue a new job (caller has already deduped by id)."""
        return self.submit_and_snapshot(job_id, spec)[0]

    def submit_and_snapshot(
        self, job_id: str, spec: dict[str, Any]
    ) -> tuple[Job, dict[str, Any]]:
        """Enqueue plus a snapshot captured atomically with the enqueue.

        The API answers ``POST /jobs`` with this snapshot: once the
        lock is released the dispatcher may claim the job at any
        moment, so a later ``job.snapshot()`` could already say
        RUNNING — the 202 body must reflect the submission instant.
        """
        with self._lock:
            job = self._log(
                {"event": "submit", "job": job_id, "spec": spec, "at": time.time()}
            )
            snapshot = job.snapshot()
            self.wake.set()
        self._notify("submit", job)
        return job, snapshot

    def _transition(self, job: Job, state: str, **extra: Any) -> None:
        self._log(
            {
                "event": "state",
                "job": job.id,
                "state": state,
                "at": time.time(),
                **extra,
            }
        )

    def requeue(self, job_id: str) -> Job:
        """Move a FAILED/SHED job back to QUEUED (repeat submission)."""
        return self.requeue_and_snapshot(job_id)[0]

    def requeue_and_snapshot(
        self, job_id: str
    ) -> tuple[Job, dict[str, Any]]:
        """Requeue plus the same atomic-snapshot guarantee as submit."""
        with self._lock:
            job = self._jobs[job_id]
            if job.state not in JobStates.RESUBMITTABLE:
                return job, job.snapshot()
            self._transition(job, JobStates.QUEUED, reason="resubmitted")
            snapshot = job.snapshot()
            self.wake.set()
        self._notify("requeue", job)
        return job, snapshot

    def claim(self) -> Job | None:
        """Oldest QUEUED job → RUNNING, or ``None`` when idle."""
        with self._lock:
            claimed = None
            for job_id in self._order:
                job = self._jobs[job_id]
                if job.state == JobStates.QUEUED:
                    self._transition(job, JobStates.RUNNING)
                    claimed = job
                    break
            else:
                self.wake.clear()
        self._notify("claim", claimed)
        return claimed

    def finish(self, job_id: str, result: dict[str, Any]) -> None:
        with self._lock:
            job = self._jobs[job_id]
            self._transition(job, JobStates.DONE, result=result)
        self._notify("finish", job)

    def fail(self, job_id: str, error: str) -> None:
        with self._lock:
            job = self._jobs[job_id]
            self._transition(job, JobStates.FAILED, error=error)
        self._notify("fail", job)

    def shed(self, job_id: str, reason: str) -> None:
        with self._lock:
            job = self._jobs[job_id]
            self._transition(job, JobStates.SHED, reason=reason)
        self._notify("shed", job)

    def update_progress(self, job_id: str, **progress: Any) -> None:
        """Merge live progress counters (in-memory only, never logged)."""
        with self._lock:
            job = self._jobs[job_id]
            job.progress.update(progress)
        self._notify("progress", job)

    # -- views ---------------------------------------------------------------

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self) -> Iterator[Job]:
        with self._lock:
            return iter([self._jobs[job_id] for job_id in self._order])

    def depth(self) -> int:
        """QUEUED jobs waiting (the admission/backpressure signal)."""
        with self._lock:
            return sum(
                1
                for job in self._jobs.values()
                if job.state == JobStates.QUEUED
            )

    def counts(self) -> dict[str, int]:
        with self._lock:
            counts = {state: 0 for state in JobStates.ALL}
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts
