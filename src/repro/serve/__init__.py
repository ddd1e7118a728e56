"""Simulation-as-a-service: HTTP/JSON API over the resilient engine.

The ROADMAP north-star frames heavy traffic as consensus-simulation
requests; this package is the service layer that accepts them.  It is
stdlib-only (``http.server``) and glues together three existing layers:

- :mod:`repro.workloads` defines *what* a job runs (the same sweep /
  fuzz / chaos / campaign shapes as the CLI, so ledger bytes are
  byte-identical across entry points);
- :mod:`repro.resilience` defines *how* it runs (failure policies,
  deadlines, admission control with priority classes);
- :mod:`repro.obs.ledger` is *where* results live (the append-only
  content-addressed store — repeated submissions are cache hits, and a
  server restart resumes from the checkpointed ledger prefix).

Layout: :mod:`~repro.serve.schemas` validates and fingerprints job
specs, :mod:`~repro.serve.queue` is the persistent JSONL job log,
:mod:`~repro.serve.dispatcher` drains it onto the engine,
:mod:`~repro.serve.api` is the HTTP surface,
:mod:`~repro.serve.telemetry` the observability layer (job trace, SSE
progress streaming, Prometheus exposition, access-log middleware), and
:mod:`~repro.serve.client` the small client the tests and CI smoke use.
See ``docs/service.md`` for the API reference, lifecycle diagram and
the Observability section.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.serve.api": ("ReproServer", "ServeConfig", "build_server"),
        "repro.serve.client": ("ServeClient", "ServeError"),
        "repro.serve.dispatcher": ("Dispatcher",),
        "repro.serve.queue": ("Job", "JobQueue", "JobStates"),
        "repro.serve.schemas": (
            "JOB_KINDS",
            "PRIORITIES",
            "SpecError",
            "job_fingerprint",
            "validate_spec",
        ),
        "repro.serve.telemetry": (
            "EventBroker",
            "JobTracer",
            "TelemetryHub",
            "job_trace_to_trace",
            "load_job_trace",
            "render_prometheus",
            "timeline_rows",
        ),
    },
)
