"""repro.obs — runtime observability: metrics, trace export, profiling.

The paper's claims are quantitative, so the reproduction measures itself:

- :mod:`repro.obs.metrics` — the labeled counter/gauge/histogram registry
  every :class:`~repro.runtime.simulation.Simulation` owns (``sim.metrics``)
  and every layer reports into; snapshots are deterministic per seed and
  serialize to JSON;
- :mod:`repro.obs.export` — structured trace export (JSONL and Chrome
  ``trace_event`` format, openable in Perfetto / ``chrome://tracing``);
- :mod:`repro.obs.profiling` — wall-clock ``perf_counter`` sections with an
  overhead self-test;
- :mod:`repro.obs.timeseries` — deterministic metric time series sampled
  every K scheduler steps (``SeriesRecorder``/``SeriesSpec``), serialized
  inside snapshots and merged across worker processes;
- :mod:`repro.obs.causality` — happens-before DAG over the recorded event
  timeline, critical-path attribution per layer/pid (``CausalReport``);
- :mod:`repro.obs.report` — the self-contained HTML dashboard behind
  ``repro report --out report.html``;
- :mod:`repro.obs.ledger` — the append-only, content-addressed cross-run
  telemetry store (``--ledger`` / ``REPRO_LEDGER``), fingerprinting every
  run by (seed, config, code version) with cache-hit semantics;
- :mod:`repro.obs.projections` — cross-run history, trend series,
  rolling-baseline regression gating and the determinism-violation
  (flakiness) detector behind ``repro history``, over the trend metrics
  of :mod:`repro.obs.trends`.

See ``docs/observability.md`` for the metric catalog and how experiments
E1–E12 map onto it.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.obs.metrics": (
            "NULL_INSTRUMENT",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricsRegistry",
            "MetricsSnapshot",
            "merge_snapshots",
            "parse_key",
        ),
        "repro.obs.export": (
            "export_chrome",
            "export_jsonl",
            "export_trace",
            "load_jsonl",
            "trace_to_chrome",
            "trace_to_jsonl",
        ),
        "repro.obs.profiling": ("Profiler", "measure_overhead"),
        "repro.obs.timeseries": (
            "DEFAULT_TRACK",
            "SeriesRecorder",
            "SeriesSpec",
            "merge_series_payloads",
        ),
        "repro.obs.causality": (
            "CausalReport",
            "CriticalPath",
            "build_causal_report",
            "causal_report_for",
        ),
        "repro.obs.ledger": (
            "LedgerRecord",
            "RunLedger",
            "compute_fingerprint",
            "ledger_from_env",
            "make_record",
            "read_records",
        ),
        "repro.obs.projections": (
            "DeterminismViolation",
            "HistoryCheck",
            "TrendAlert",
            "detect_regressions",
            "detect_violations",
            "history_check",
            "history_rows",
            "trend_rows",
            "trend_series",
        ),
        "repro.obs.report": ("render_report", "write_report"),
    },
)
