"""Operational telemetry for the simulation service.

PR 8 made the service *correct* (byte-identical ledgers, survivable
SIGTERM); this module makes it *observable*.  One correlation id — the
job's content-addressed fingerprint — is threaded from ``POST /jobs``
through queue admission, dispatcher execution, worker-pool task
progress and ledger checkpointing, and surfaces through four outputs:

- :class:`JobTracer` — an append-only JSONL **job trace**: span records
  (``queue-wait``, ``dispatch``, ``task``, ``checkpoint``) and instant
  records (``accepted``, ``requeued``, ``retry``, ``shed``,
  ``terminal``), each carrying the job id.  :func:`job_trace_to_trace`
  reconstructs them into a :class:`~repro.runtime.trace.Trace`, so the
  *existing* Chrome exporter (:func:`repro.obs.export.export_chrome`)
  renders a service timeline in Perfetto with one track per job.
- :class:`EventBroker` — per-job publish/subscribe behind
  ``GET /jobs/{id}/events`` (Server-Sent Events).  Publishing never
  blocks (unbounded per-subscriber queues), so a stalled or vanished
  SSE client can never wedge the dispatcher thread; each stream ends
  after exactly one terminal event.
- :class:`HttpStats` — the access-log middleware: per-request latency
  histograms and request counters (labelled by method, normalized
  route and status) in the server's metrics registry, plus an optional
  JSONL access log (``repro serve --access-log``).
- :func:`render_prometheus` — ``GET /metrics?format=prom``: the queue,
  admission, resilience and HTTP instruments in Prometheus text
  exposition format (counter/gauge/histogram families).

Everything here is *operational* data: wall-clock timestamps are
expected and deliberate, in contrast to the deterministic run ledger —
the trace answers "where did the time go", the ledger answers "what
was computed".  See ``docs/service.md`` ("Observability").
"""

from __future__ import annotations

import json
import pathlib
import queue as queue_module
import threading
import time
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from repro.obs.ledger import locked_append, read_jsonl
from repro.runtime.events import OpEvent
from repro.runtime.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.queue import Job

#: Trace-record schema version (bumped on incompatible shape changes).
TRACE_SCHEMA = 1

#: SSE event names that end a stream (exactly one is sent per stream).
TERMINAL_EVENTS = ("done", "failed", "shed")

#: Latency buckets (seconds) for the Prometheus histogram exposition.
LATENCY_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


# -- the job trace (JSONL spans + instants) ----------------------------------


class JobTracer:
    """Appends correlation-id'd trace records to one JSONL file.

    Records go through the same exclusive-lock whole-line append as the
    ledger and the job log, so dispatcher and HTTP threads interleave
    whole records and a crash tears at most the trailing line.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        clock: Callable[[], float] = time.time,
    ):
        self.path = pathlib.Path(path)
        self.clock = clock

    def _write(self, record: dict[str, Any]) -> None:
        record["schema"] = TRACE_SCHEMA
        locked_append(self.path, json.dumps(record, sort_keys=True) + "\n")

    def span(
        self,
        job_id: str,
        name: str,
        start: float,
        end: float,
        **args: Any,
    ) -> None:
        """One completed phase of a job (``start``/``end`` are wall-clock)."""
        self._write(
            {
                "type": "span",
                "job": job_id,
                "name": name,
                "start": start,
                "end": end,
                "args": args,
            }
        )

    def instant(self, job_id: str, name: str, **args: Any) -> None:
        """A point event on a job's timeline (stamped with the clock)."""
        self._write(
            {
                "type": "instant",
                "job": job_id,
                "name": name,
                "at": self.clock(),
                "args": args,
            }
        )


def load_job_trace(path: str | pathlib.Path) -> list[dict[str, Any]]:
    """Read a job-trace JSONL file by :func:`repro.obs.ledger.read_jsonl`'s
    rule: a torn tail is dropped, a damaged line raises ``ValueError``."""
    return [record for _, record in read_jsonl(path, ValueError, "job-trace")]


def job_trace_to_trace(records: list[dict[str, Any]]) -> Trace:
    """Reconstruct a :class:`~repro.runtime.trace.Trace` from trace records.

    Each distinct job becomes one "process" track (first-appearance
    order); wall-clock seconds map to integer microseconds relative to
    the earliest timestamp, which the Chrome exporter then uses as the
    ``ts`` axis — so Perfetto renders the service timeline with real
    durations.  The result feeds the *existing* exporters unchanged
    (:func:`repro.obs.export.trace_to_chrome` / ``export_trace``).
    """
    trace = Trace(record_events=True, record_spans=True)
    lanes: dict[str, int] = {}
    stamps = [r.get("start") for r in records if r.get("type") == "span"]
    stamps += [r.get("at") for r in records if r.get("type") == "instant"]
    stamps = [s for s in stamps if isinstance(s, (int, float))]
    origin = min(stamps) if stamps else 0.0

    def lane(job_id: str) -> int:
        if job_id not in lanes:
            lanes[job_id] = len(lanes)
        return lanes[job_id]

    def us(stamp: Any) -> int:
        return max(0, int((float(stamp) - origin) * 1_000_000))

    for record in records:
        job_id = str(record.get("job", ""))
        name = str(record.get("name", ""))
        target = job_id[:12]
        if record.get("type") == "span":
            span = trace.begin_span(
                pid=lane(job_id),
                kind=name,
                target=target,
                argument=record.get("args") or None,
                step=us(record.get("start", origin)),
            )
            trace.end_span(span, us(record.get("end", origin)), None)
        elif record.get("type") == "instant":
            trace.add_event(
                OpEvent(
                    step=us(record.get("at", origin)),
                    pid=lane(job_id),
                    kind=name,
                    target=target,
                    value=record.get("args") or None,
                )
            )
    return trace


def timeline_rows(records: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Dashboard rows for the "Service timeline" section: one row per
    span, with offsets relative to the trace origin (sorted by start)."""
    spans = [r for r in records if r.get("type") == "span"]
    if not spans:
        return []
    origin = min(float(s["start"]) for s in spans)
    rows = []
    for span in sorted(spans, key=lambda s: (float(s["start"]), str(s["name"]))):
        args = span.get("args") or {}
        detail = " ".join(f"{k}={args[k]}" for k in sorted(args))
        rows.append(
            {
                "job": str(span.get("job", ""))[:12],
                "phase": span.get("name", ""),
                "start_s": round(float(span["start"]) - origin, 3),
                "duration_s": round(
                    float(span["end"]) - float(span["start"]), 3
                ),
                "detail": detail,
            }
        )
    return rows


# -- live progress streaming (SSE) -------------------------------------------


def sse_format(event: str, data: Mapping[str, Any]) -> str:
    """One Server-Sent-Events frame (``event:`` + single-line ``data:``)."""
    return f"event: {event}\ndata: {json.dumps(data, sort_keys=True)}\n\n"


class _Subscription:
    """One subscriber's unbounded event queue (puts never block)."""

    __slots__ = ("job_id", "_queue")

    def __init__(self, job_id: str):
        self.job_id = job_id
        self._queue: queue_module.Queue[tuple[str, dict[str, Any]]] = (
            queue_module.Queue()
        )

    def put(self, event: str, data: dict[str, Any]) -> None:
        self._queue.put((event, data))

    def get(self, timeout: float) -> tuple[str, dict[str, Any]]:
        return self._queue.get(timeout=timeout)


class EventBroker:
    """Per-job pub/sub used by the SSE endpoint.

    The dispatcher side (:meth:`publish`) is wait-free: events land in
    unbounded per-subscriber queues, so a slow or dead client costs the
    publisher nothing.  The consumer side (:meth:`stream`) renders SSE
    frames, emitting a ``heartbeat`` event whenever ``heartbeat``
    seconds pass without traffic — driven by the queue timeout, not by
    clock arithmetic, so heartbeats keep flowing even under a frozen
    clock (the ``clock`` only stamps the frames).
    """

    def __init__(self, clock: Callable[[], float] = time.time):
        self.clock = clock
        self._lock = threading.Lock()
        self._subscribers: dict[str, list[_Subscription]] = {}

    def subscribe(self, job_id: str) -> _Subscription:
        subscription = _Subscription(job_id)
        with self._lock:
            self._subscribers.setdefault(job_id, []).append(subscription)
        return subscription

    def unsubscribe(self, subscription: _Subscription) -> None:
        with self._lock:
            subscribers = self._subscribers.get(subscription.job_id, [])
            if subscription in subscribers:
                subscribers.remove(subscription)
            if not subscribers:
                self._subscribers.pop(subscription.job_id, None)

    def subscriber_count(self, job_id: str) -> int:
        with self._lock:
            return len(self._subscribers.get(job_id, []))

    def publish(self, job_id: str, event: str, data: dict[str, Any]) -> None:
        with self._lock:
            subscribers = list(self._subscribers.get(job_id, []))
        for subscription in subscribers:
            subscription.put(event, data)

    def stream(
        self,
        job_id: str,
        snapshot: Callable[[], dict[str, Any]],
        heartbeat: float = 15.0,
    ) -> Iterator[str]:
        """Yield SSE frames for one job until its terminal event.

        The first frame is always an ``accepted`` event carrying the
        job's *current* snapshot.  ``snapshot`` is read after
        subscribing, so a job that went terminal between the HTTP
        request and the subscription still terminates the stream (with
        its terminal event synthesized from the snapshot) instead of
        waiting for a publish that already happened — which is also what
        makes the terminal event exactly-once: either it arrives via the
        queue and ends the loop, or it was already in the snapshot and
        the queue is never drained.
        """
        subscription = self.subscribe(job_id)
        try:
            current = snapshot()
            yield sse_format("accepted", current)
            terminal = _terminal_event_for(current.get("state", ""))
            if terminal is not None:
                yield sse_format(terminal, current)
                return
            while True:
                try:
                    event, data = subscription.get(timeout=heartbeat)
                except queue_module.Empty:
                    yield sse_format("heartbeat", {"at": self.clock()})
                    continue
                yield sse_format(event, data)
                if event in TERMINAL_EVENTS:
                    return
        finally:
            self.unsubscribe(subscription)


def _terminal_event_for(state: str) -> str | None:
    """Map a queue state to its SSE terminal event name (or ``None``)."""
    return {"DONE": "done", "FAILED": "failed", "SHED": "shed"}.get(state)


# -- HTTP access accounting ---------------------------------------------------


def normalize_route(path: str) -> str:
    """Collapse job ids out of paths so metric labels stay low-cardinality."""
    parts = [p for p in path.split("?", 1)[0].split("/") if p]
    if len(parts) >= 2 and parts[0] == "jobs":
        tail = parts[2:] if len(parts) > 2 else []
        return "/".join(["/jobs/{id}"] + tail).replace("//", "/")
    return "/" + "/".join(parts) if parts else "/"


class HttpStats:
    """Access-log middleware state: latency histograms + request counters.

    Instruments live in the server's :class:`MetricsRegistry` (so the
    JSON ``/metrics`` view and the Prometheus exposition both see them),
    and each request optionally appends one JSONL line to the access
    log — the operational audit trail ``repro serve --access-log``
    enables.
    """

    def __init__(
        self,
        metrics: "MetricsRegistry",
        access_log: str | pathlib.Path | None = None,
        clock: Callable[[], float] = time.time,
    ):
        self.metrics = metrics
        self.access_log = pathlib.Path(access_log) if access_log else None
        self.clock = clock

    def observe(
        self, method: str, path: str, status: int, seconds: float
    ) -> None:
        route = normalize_route(path)
        self.metrics.counter(
            "serve.http.requests", method=method, route=route, status=status
        ).inc()
        self.metrics.histogram(
            "serve.http.request_seconds", method=method, route=route
        ).observe(seconds)
        if self.access_log is not None:
            locked_append(
                self.access_log,
                json.dumps(
                    {
                        "at": round(self.clock(), 6),
                        "method": method,
                        "path": path,
                        "status": status,
                        "seconds": round(seconds, 6),
                    },
                    sort_keys=True,
                )
                + "\n",
            )


# -- the hub: one listener for every queue transition -------------------------


class TelemetryHub:
    """Owns the tracer, broker and HTTP stats; observes queue transitions.

    Installed as the :class:`~repro.serve.queue.JobQueue` listener, it
    turns every lifecycle transition into (a) SSE events for live
    subscribers and (b) job-trace records.  The queue-wait span is
    measured here: ``submit``/``requeue`` stamp the enqueue instant,
    ``claim`` closes the span.  Per-cell ``task`` spans come from
    progress ticks (one span per tick, covering the cells completed
    since the previous tick).
    """

    def __init__(
        self,
        trace_path: str | pathlib.Path,
        metrics: "MetricsRegistry",
        access_log: str | pathlib.Path | None = None,
        clock: Callable[[], float] = time.time,
    ):
        self.clock = clock
        self.tracer = JobTracer(trace_path, clock=clock)
        self.broker = EventBroker(clock=clock)
        self.http = HttpStats(metrics, access_log, clock=clock)
        self._lock = threading.Lock()
        self._queued_at: dict[str, float] = {}
        self._dispatch_start: dict[str, float] = {}
        self._last_tick: dict[str, tuple[float, int]] = {}

    # The JobQueue listener: called after each appended transition.
    def on_job_event(self, event: str, job: "Job") -> None:
        now = self.clock()
        if event in ("submit", "requeue"):
            with self._lock:
                self._queued_at[job.id] = now
            self.tracer.instant(
                job.id,
                "accepted" if event == "submit" else "requeued",
                kind=job.spec.get("kind"),
                priority=job.spec.get("priority"),
            )
            self.broker.publish(job.id, "accepted", job.snapshot())
        elif event == "claim":
            with self._lock:
                queued_at = self._queued_at.pop(job.id, job.submitted_at)
                self._dispatch_start[job.id] = now
                self._last_tick[job.id] = (now, 0)
            self.tracer.span(job.id, "queue-wait", queued_at, now)
            self.broker.publish(job.id, "running", job.snapshot())
        elif event == "progress":
            done = int(job.progress.get("done", 0))
            total = int(job.progress.get("total", 0))
            with self._lock:
                tick_start, last_done = self._last_tick.get(job.id, (now, 0))
                self._last_tick[job.id] = (now, done)
            if done > last_done:
                self.tracer.span(
                    job.id,
                    "task",
                    tick_start,
                    now,
                    cells=f"{last_done + 1}..{done}",
                    total=total,
                )
            self.broker.publish(
                job.id, "progress", {"id": job.id, "done": done, "total": total}
            )
        elif event in ("finish", "fail", "shed"):
            with self._lock:
                self._last_tick.pop(job.id, None)
                self._queued_at.pop(job.id, None)
                dispatch_start = self._dispatch_start.pop(job.id, None)
            if dispatch_start is not None:
                self.tracer.span(
                    job.id, "dispatch", dispatch_start, now, state=job.state
                )
            self.tracer.instant(
                job.id,
                "terminal",
                state=job.state,
                reason=job.reason or None,
            )
            if event == "shed":
                self.tracer.instant(job.id, "shed", reason=job.reason)
            terminal = _terminal_event_for(job.state) or "done"
            self.broker.publish(job.id, terminal, job.snapshot())


# -- Prometheus text exposition ----------------------------------------------


def _escape_label(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels(labels: Mapping[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(labels[k])}"' for k in sorted(labels)
    )
    return "{" + inner + "}"


def _fmt_value(value: float) -> str:
    if isinstance(value, float) and value != int(value):
        return repr(value)
    return str(int(value))


class PromWriter:
    """Accumulates one Prometheus exposition document family by family."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(
        self, name: str, value: float, labels: Mapping[str, Any] | None = None
    ) -> None:
        self.lines.append(f"{name}{_labels(labels or {})} {_fmt_value(value)}")

    def histogram(
        self,
        name: str,
        observations: Mapping[str, float],
        labels: Mapping[str, Any] | None = None,
        raw: list[float] | None = None,
    ) -> None:
        """Emit ``_bucket``/``_sum``/``_count`` series for one label set.

        ``raw`` (the exact observations, when available) yields exact
        bucket counts; otherwise buckets degrade to the summary's count
        at ``+Inf`` only — still a valid histogram family.
        """
        base = dict(labels or {})
        if raw is not None:
            for le in LATENCY_BUCKETS:
                count = sum(1 for v in raw if v <= le)
                self.sample(
                    f"{name}_bucket", count, {**base, "le": repr(float(le))}
                )
        self.sample(
            f"{name}_bucket",
            observations.get("count", 0),
            {**base, "le": "+Inf"},
        )
        self.sample(f"{name}_sum", observations.get("sum", 0.0), base)
        self.sample(f"{name}_count", observations.get("count", 0), base)

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_prometheus(server: Any) -> str:
    """``GET /metrics?format=prom``: the service state as Prometheus text.

    ``server`` is a :class:`~repro.serve.api.ReproServer`; the function
    only reads (queue counts, admission accounting, the metrics
    registry), so scraping is side-effect free.
    """
    from repro.obs.metrics import parse_key
    from repro.serve.queue import JobStates

    writer = PromWriter()
    counts = server.queue.counts()
    accounting = server.admission.accounting()
    snapshot = server.metrics.snapshot()

    writer.family(
        "repro_uptime_seconds", "gauge", "Seconds since the server booted."
    )
    writer.sample(
        "repro_uptime_seconds", round(time.time() - server.started, 3)
    )

    writer.family(
        "repro_jobs", "gauge", "Jobs in the persistent queue, by state."
    )
    for state in JobStates.ALL:
        writer.sample("repro_jobs", counts[state], {"state": state})

    writer.family(
        "repro_queue_depth", "gauge", "Jobs waiting to be dispatched."
    )
    writer.sample("repro_queue_depth", counts[JobStates.QUEUED])

    shed = counts[JobStates.SHED]
    terminal = shed + counts[JobStates.DONE] + counts[JobStates.FAILED]
    writer.family(
        "repro_shed_rate",
        "gauge",
        "Shed jobs as a fraction of terminal jobs.",
    )
    writer.sample("repro_shed_rate", (shed / terminal) if terminal else 0.0)

    writer.family(
        "repro_admission_pressure",
        "gauge",
        "Budget pressure in [0, 1+] driving admission shedding.",
    )
    writer.sample(
        "repro_admission_pressure", float(accounting.get("pressure", 0.0))
    )
    writer.family(
        "repro_admission_decisions_total",
        "counter",
        "Admission controller decisions, by outcome.",
    )
    for outcome in ("admitted", "shed"):
        writer.sample(
            "repro_admission_decisions_total",
            int(accounting.get(outcome, 0)),
            {"outcome": outcome},
        )

    writer.family(
        "repro_resilience_total",
        "counter",
        "Engine resilience events across all jobs (retries/timeouts/shed).",
    )
    for kind in ("retries", "timeouts", "shed"):
        writer.sample(
            "repro_resilience_total",
            snapshot.counter_total(f"resilience.{kind}"),
            {"kind": kind},
        )

    writer.family(
        "repro_job_resilience_total",
        "counter",
        "Per-job resilience counters (correlation id = job fingerprint).",
    )
    for job in server.queue.jobs():
        resilience = (job.result or {}).get("resilience") or {}
        for kind in sorted(resilience):
            writer.sample(
                "repro_job_resilience_total",
                int(resilience[kind]),
                {"job": job.id[:12], "kind": kind},
            )

    writer.family(
        "repro_http_requests_total",
        "counter",
        "HTTP requests served, by method, normalized route and status.",
    )
    for key, value in sorted(snapshot.counters.items()):
        name, labels = parse_key(key)
        if name == "serve.http.requests":
            writer.sample("repro_http_requests_total", value, labels)

    writer.family(
        "repro_http_request_duration_seconds",
        "histogram",
        "HTTP request latency, by method and normalized route.",
    )
    live = server.metrics._histograms  # exact observations for buckets
    for key in sorted(snapshot.histograms):
        name, labels = parse_key(key)
        if name != "serve.http.request_seconds":
            continue
        raw = live[key].observations if key in live else None
        writer.histogram(
            "repro_http_request_duration_seconds",
            snapshot.histograms[key],
            labels,
            raw=list(raw) if raw is not None else None,
        )

    writer.family(
        "repro_engine_total",
        "counter",
        "Engine metric counters, verbatim (label: canonical metric key).",
    )
    for key, value in sorted(snapshot.counters.items()):
        if not key.startswith("serve.http."):
            writer.sample("repro_engine_total", value, {"metric": key})

    return writer.render()
