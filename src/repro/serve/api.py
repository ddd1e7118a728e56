"""The HTTP surface: stdlib ``ThreadingHTTPServer`` + JSON handlers.

Routes::

    POST /jobs              submit a job spec  → 202 queued / 200 done
    GET  /jobs              list all jobs (snapshots, newest last)
    GET  /jobs/{id}         one job's status with live progress
    GET  /jobs/{id}/events  live Server-Sent-Events stream (accepted /
                            running / progress / heartbeat / terminal)
    GET  /jobs/{id}/result  the merged outcome (DONE jobs only)
    GET  /health            liveness + job counts + uptime
    GET  /metrics           JSON projection of the metrics registry,
                            queue depth, admission accounting;
                            ``?format=prom`` renders Prometheus text
    GET  /history           run-ledger inventory (obs.projections)
    GET  /history/trends    trend rows, or one metric's raw points
    GET  /history/check     the regression + determinism gate over HTTP

Every request flows through the telemetry middleware: latency lands in
the ``serve.http.request_seconds`` histogram (labelled by method and
normalized route, so ``/jobs/{id}`` is one label however many jobs
exist) and optionally in the JSONL access log
(``repro serve --access-log``).

Submission is idempotent by construction: the job id is the SHA-256 of
the canonical spec + code version (:func:`repro.serve.schemas.job_fingerprint`),
so resubmitting finished work returns the existing job (HTTP 200 with
``"cached": true``) instead of recomputing.  Backpressure is explicit:
a full queue answers 429, a budget-exhausted admission controller 503,
both with the refusal reason in the body — the shed job is recorded in
the job log so the decision itself is auditable.
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
import urllib.parse
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING, Any

from repro.obs.ledger import LedgerCorruption, read_records, truncate_torn_tail
from repro.serve.dispatcher import Dispatcher
from repro.serve.queue import JobQueue, JobStates
from repro.serve.schemas import (
    PRIORITIES,
    SpecError,
    job_fingerprint,
    validate_spec,
)
from repro.serve.telemetry import TelemetryHub, render_prometheus

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience import AdmissionController

#: Response cap on ``GET /jobs`` (newest are the interesting ones).
MAX_LISTED_JOBS = 200


@dataclass
class ServeConfig:
    """Everything ``repro serve`` configures, in one picklable bag."""

    host: str = "127.0.0.1"
    port: int = 8642
    workers: int = 1
    state_dir: str = ".repro-serve"
    ledger_path: str = ""  # default: <state_dir>/ledger.jsonl
    jobs_path: str = ""  # default: <state_dir>/jobs.jsonl
    retries: int = 0
    retry_backoff: float = 0.05
    task_timeout: float = 0.0
    max_queued: int = 64
    budget_steps: int = 0  # 0 = unlimited
    budget_wall_seconds: float = 0.0
    budget_tasks: int = 0
    soft_fraction: float = 0.8
    trace_path: str = ""  # default: <state_dir>/trace.jsonl
    access_log: str = ""  # off unless set (repro serve --access-log)
    heartbeat: float = 15.0  # SSE keep-alive cadence, seconds

    def resolved_ledger(self) -> pathlib.Path:
        return pathlib.Path(
            self.ledger_path or pathlib.Path(self.state_dir) / "ledger.jsonl"
        )

    def resolved_jobs(self) -> pathlib.Path:
        return pathlib.Path(
            self.jobs_path or pathlib.Path(self.state_dir) / "jobs.jsonl"
        )

    def resolved_trace(self) -> pathlib.Path:
        return pathlib.Path(
            self.trace_path or pathlib.Path(self.state_dir) / "trace.jsonl"
        )


class _Priced:
    """Adapter giving a job spec the ``priority`` attribute the
    admission controller reads."""

    def __init__(self, spec: dict[str, Any]):
        self.priority = PRIORITIES[spec["priority"]]


class ReproServer:
    """The assembled service: HTTP server + queue + dispatcher.

    Boot order matters: both JSONL stores are healed of torn trailing
    lines *before* anything reads them, so a ledger a SIGKILLed
    predecessor tore mid-append is byte-identical to an undisturbed
    prefix by the time the first job resumes from it.
    """

    def __init__(self, config: ServeConfig):
        from repro.obs.metrics import MetricsRegistry
        from repro.resilience import (
            AdmissionController,
            CampaignBudget,
            FailurePolicy,
            RetryBackoff,
        )

        self.config = config
        self.started = time.time()
        ledger_path = config.resolved_ledger()
        jobs_path = config.resolved_jobs()
        truncate_torn_tail(ledger_path)
        truncate_torn_tail(jobs_path)
        truncate_torn_tail(config.resolved_trace())
        self.metrics = MetricsRegistry(enabled=True)
        self.telemetry = TelemetryHub(
            config.resolved_trace(),
            self.metrics,
            access_log=config.access_log or None,
        )
        self.queue = JobQueue(jobs_path)
        # The telemetry seam: attached after boot replay, so the hub
        # observes live transitions only (restart requeues stay silent).
        self.queue.listener = self.telemetry.on_job_event
        budget = CampaignBudget(
            max_steps=config.budget_steps or None,
            max_wall_seconds=config.budget_wall_seconds or None,
            max_tasks=config.budget_tasks or None,
            soft_fraction=config.soft_fraction,
        )
        # Always constructed — an unlimited budget admits everything but
        # still keeps the accounting /metrics reports.
        self.admission: "AdmissionController" = AdmissionController(budget)
        if config.retries > 0:
            policy = FailurePolicy.retry(
                max_attempts=config.retries + 1,
                backoff=RetryBackoff(base=config.retry_backoff, seed=0),
            )
        else:
            policy = FailurePolicy.continue_and_report()
        self.dispatcher = Dispatcher(
            self.queue,
            ledger_path=ledger_path,
            workers=config.workers,
            policy=policy,
            task_timeout=config.task_timeout or None,
            admission=self.admission,
            metrics=self.metrics,
            telemetry=self.telemetry,
        )
        handler = _make_handler(self)
        self.httpd = ThreadingHTTPServer((config.host, config.port), handler)
        self.httpd.daemon_threads = True
        #: The thread running :meth:`serve_forever`, while one does.
        self._serving: int | None = None

    @property
    def port(self) -> int:
        """The bound port (resolves ``--port 0``)."""
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> None:
        self.dispatcher.start()

    def serve_forever(self) -> None:  # pragma: no cover - blocks
        self._serving = threading.get_ident()
        try:
            self.httpd.serve_forever(poll_interval=0.1)
        finally:
            self._serving = None

    def stop(self) -> None:
        """Shut down; when this returns, no engine worker is alive.

        ``httpd.shutdown()`` waits for a serve loop to exit, so it runs
        only while :meth:`serve_forever` runs in another thread: with no
        loop (never started, or ended by Ctrl-C in this thread) it would
        wait forever.
        """
        self.dispatcher.stop()
        serving = self._serving
        if serving is not None and serving != threading.get_ident():
            self.httpd.shutdown()
        self.httpd.server_close()

    # -- endpoint bodies (pure views over the pieces) ------------------------

    def health_body(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "uptime_seconds": round(time.time() - self.started, 3),
            "jobs": self.queue.counts(),
            "workers": self.dispatcher.workers,
            "ledger": str(self.config.resolved_ledger()),
        }

    def metrics_body(self) -> dict[str, Any]:
        counts = self.queue.counts()
        done = counts[JobStates.DONE]
        shed = counts[JobStates.SHED]
        terminal = done + counts[JobStates.FAILED] + shed
        snapshot = self.metrics.snapshot()
        resilience_by_job = {}
        for job in self.queue.jobs():
            per_job = (job.result or {}).get("resilience") or {}
            if any(per_job.values()):
                resilience_by_job[job.id] = dict(per_job)
        return {
            "queue": {
                "depth": counts[JobStates.QUEUED],
                "running": counts[JobStates.RUNNING],
                "by_state": counts,
                "shed_rate": (shed / terminal) if terminal else 0.0,
            },
            "admission": self.admission.accounting(),
            "resilience_by_job": resilience_by_job,
            "engine": json.loads(snapshot.to_json(indent=None)),
        }

    # -- the run-ledger projections, served over HTTP ------------------------

    def _ledger_records(self) -> tuple[int, Any]:
        """Fresh read of the server's ledger: ``(200, records)`` or an
        error body (a fresh read sees concurrent CLI appends too)."""
        try:
            return 200, read_records(self.config.resolved_ledger())
        except LedgerCorruption as exc:
            return 500, {"error": f"ledger corrupt: {exc}"}

    def history_body(
        self, query: dict[str, str]
    ) -> tuple[int, dict[str, Any]]:
        from repro.obs.projections import filter_records, history_rows

        status, records = self._ledger_records()
        if status != 200:
            return status, records
        records = filter_records(
            records,
            experiment=query.get("experiment", ""),
            kind=query.get("kind", ""),
        )
        return 200, {
            "ledger": str(self.config.resolved_ledger()),
            "records": len(records),
            "rows": history_rows(records),
        }

    def trends_body(
        self, query: dict[str, str]
    ) -> tuple[int, dict[str, Any]]:
        from repro.obs.projections import (
            filter_records,
            trend_rows,
            trend_series,
        )

        status, records = self._ledger_records()
        if status != 200:
            return status, records
        experiment = query.get("experiment", "")
        metric = query.get("metric", "")
        if metric:
            try:
                points = trend_series(
                    records, metric, experiment=experiment
                )
            except KeyError as exc:
                return 400, {"error": str(exc).strip("'\"")}
            return 200, {
                "metric": metric,
                "experiment": experiment,
                "points": points,
            }
        records = filter_records(records, experiment=experiment)
        return 200, {
            "records": len(records),
            "trends": trend_rows(records),
        }

    def check_body(
        self, query: dict[str, str]
    ) -> tuple[int, dict[str, Any]]:
        from repro.obs.projections import (
            DEFAULT_TOLERANCE,
            DEFAULT_WINDOW,
            history_check,
        )

        status, records = self._ledger_records()
        if status != 200:
            return status, records
        try:
            window = int(query.get("window", DEFAULT_WINDOW))
            tolerance = float(query.get("tolerance", DEFAULT_TOLERANCE))
        except ValueError as exc:
            return 400, {"error": f"bad window/tolerance: {exc}"}
        check = history_check(
            records,
            window=window,
            tolerance=tolerance,
            experiment=query.get("experiment", ""),
        )
        return 200, {
            "ok": check.ok,
            "records": check.records,
            "summary": check.summary(),
            "regressions": [
                {
                    "experiment": a.experiment,
                    "metric": a.metric,
                    "baseline": a.baseline,
                    "latest": a.latest,
                    "drift": a.drift,
                    "message": str(a),
                }
                for a in check.regressions
            ],
            "violations": [
                {
                    "fingerprint": v.fingerprint,
                    "experiment": v.experiment,
                    "kind": v.kind,
                    "records": v.records,
                    "identities": v.identities,
                    "message": str(v),
                }
                for v in check.violations
            ],
        }

    def submit(self, payload: Any) -> tuple[int, dict[str, Any]]:
        """The POST /jobs decision tree; returns (status, body)."""
        try:
            spec = validate_spec(payload)
        except SpecError as exc:
            return 400, {"error": str(exc)}
        job_id = job_fingerprint(spec)
        existing = self.queue.get(job_id)
        if existing is not None:
            if existing.state == JobStates.DONE:
                body = existing.snapshot()
                body["cached"] = True
                return 200, body
            if existing.state in JobStates.RESUBMITTABLE:
                return 202, self.queue.requeue_and_snapshot(job_id)[1]
            return 202, existing.snapshot()  # already queued/running
        if self.queue.depth() >= self.config.max_queued:
            return 429, {
                "error": (
                    f"queue full ({self.config.max_queued} jobs queued); "
                    "retry later"
                ),
                "id": job_id,
            }
        decision = self.admission.admit(_Priced(spec))
        if not decision.admitted:
            self.queue.submit(job_id, spec)
            self.queue.shed(job_id, decision.reason)
            status = 503 if decision.pressure >= 1.0 else 429
            return status, {
                "error": decision.reason,
                "id": job_id,
                "state": JobStates.SHED,
                "pressure": decision.pressure,
            }
        # Snapshot captured under the queue lock: after release the
        # dispatcher may claim instantly, and the 202 must say QUEUED.
        return 202, self.queue.submit_and_snapshot(job_id, spec)[1]


def _make_handler(server: ReproServer) -> type[BaseHTTPRequestHandler]:
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"

        def log_message(self, format: str, *args: Any) -> None:
            pass  # request logging stays out of the CLI's stdout contract

        def _reply(self, status: int, body: dict[str, Any]) -> None:
            data = json.dumps(body, sort_keys=True).encode("utf-8")
            self._send(status, data, "application/json")

        def _reply_text(
            self, status: int, text: str, content_type: str
        ) -> None:
            self._send(status, text.encode("utf-8"), content_type)

        def _send(self, status: int, data: bytes, content_type: str) -> None:
            self._status = status
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        # -- telemetry middleware: every request is timed and counted --------

        def _timed(self, method: str, handler: Any) -> None:
            self._status = 0
            start = time.monotonic()
            try:
                handler()
            finally:
                server.telemetry.http.observe(
                    method,
                    self.path,
                    self._status,
                    time.monotonic() - start,
                )

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            self._timed("GET", self._handle_get)

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            self._timed("POST", self._handle_post)

        def _handle_get(self) -> None:
            split = urllib.parse.urlsplit(self.path)
            path = split.path.rstrip("/") or "/"
            query = {
                key: values[-1]
                for key, values in urllib.parse.parse_qs(split.query).items()
            }
            if path == "/health":
                self._reply(200, server.health_body())
                return
            if path == "/metrics":
                if query.get("format") == "prom":
                    self._reply_text(
                        200,
                        render_prometheus(server),
                        "text/plain; version=0.0.4; charset=utf-8",
                    )
                else:
                    self._reply(200, server.metrics_body())
                return
            if path == "/history":
                self._reply(*server.history_body(query))
                return
            if path == "/history/trends":
                self._reply(*server.trends_body(query))
                return
            if path == "/history/check":
                self._reply(*server.check_body(query))
                return
            if path == "/jobs":
                jobs = list(server.queue.jobs())[-MAX_LISTED_JOBS:]
                self._reply(200, {"jobs": [job.snapshot() for job in jobs]})
                return
            if path.startswith("/jobs/"):
                rest = path[len("/jobs/") :]
                job_id, _, tail = rest.partition("/")
                job = server.queue.get(job_id)
                if job is None or tail not in ("", "result", "events"):
                    self._reply(404, {"error": f"no such resource {path!r}"})
                    return
                if tail == "":
                    self._reply(200, job.snapshot())
                    return
                if tail == "events":
                    self._stream_events(job_id)
                    return
                if job.state != JobStates.DONE:
                    body = job.snapshot()
                    body["error"] = f"job is {job.state}, not DONE"
                    self._reply(409, body)
                    return
                self._reply(
                    200, {"id": job.id, "result": job.result or {}}
                )
                return
            self._reply(404, {"error": f"no such resource {path!r}"})

        def _stream_events(self, job_id: str) -> None:
            """``GET /jobs/{id}/events``: Server-Sent Events until terminal.

            Streaming under ``http.server`` means no Content-Length, so
            the connection is marked close-after-response; each frame is
            flushed as it is produced.  A client that disconnects
            mid-stream raises on the write — the broker subscription is
            torn down in the generator's ``finally`` and the publisher
            (the dispatcher thread) never notices: its puts go to
            unbounded queues and cannot block.
            """
            self._status = 200
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.close_connection = True
            self.end_headers()
            job = server.queue.get(job_id)
            stream = server.telemetry.broker.stream(
                job_id,
                snapshot=lambda: (
                    server.queue.get(job_id) or job
                ).snapshot(),
                heartbeat=server.config.heartbeat,
            )
            try:
                for frame in stream:
                    self.wfile.write(frame.encode("utf-8"))
                    self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError, OSError):
                pass  # client went away; the finally unsubscribes
            finally:
                stream.close()

        def _handle_post(self) -> None:
            if self.path.rstrip("/") != "/jobs":
                self._reply(404, {"error": f"no such resource {self.path!r}"})
                return
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            try:
                payload = json.loads(raw.decode("utf-8") or "null")
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self._reply(400, {"error": f"request body is not JSON: {exc}"})
                return
            self._reply(*server.submit(payload))

    return Handler


def build_server(config: ServeConfig | None = None, **overrides: Any) -> ReproServer:
    """Construct (but do not start) a :class:`ReproServer`.

    Keyword overrides patch the default :class:`ServeConfig` — the
    convenience the tests use: ``build_server(port=0, state_dir=tmp)``.
    """
    if config is None:
        config = ServeConfig(**overrides)
    elif overrides:
        raise TypeError("pass either a ServeConfig or keyword overrides")
    return ReproServer(config)
