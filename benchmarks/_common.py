"""Shared infrastructure for the experiment benchmarks (E1–E12).

Each benchmark runs one experiment from the DESIGN.md index, prints its
paper-vs-measured table (visible with ``pytest -s`` and in the benchmark
logs), persists it under ``benchmarks/results/`` for EXPERIMENTS.md, and
asserts the *shape* of the paper's claim (growth exponents, orderings,
bounds) rather than absolute constants.

Two artifacts are written per experiment:

- ``<experiment>.txt`` — the human-readable table(s), rewritten from
  scratch on every run (``record`` is idempotent per experiment: rerunning
  a benchmark, even with different parameters in the title, replaces the
  file instead of appending duplicates);
- ``BENCH_<EXPERIMENT>.json`` — a machine-readable artifact carrying the
  same rows plus any attached metrics snapshots (see ``attach_metrics``)
  and wall-clock timings (``bench_timer`` / ``record_speedup``), the input
  to trend tracking, the CI ``bench-gate`` job and ``repro bench --check``.

Benchmarks accept a worker-process count (``--workers N`` on the script,
``REPRO_BENCH_WORKERS`` in the environment — see ``bench_workers``) and
fan replications out through :mod:`repro.parallel`; results are identical
at any worker count because every replication seeds its own simulation.
The regression gate compares measured values only — timing keys record
the host and are skipped (see ``repro.analysis.benchgate``).
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import sys
import time
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.reporting import format_table
from repro.parallel import available_workers, resolve_workers
from repro.version import provenance

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BASELINES_DIR = pathlib.Path(__file__).parent / "baselines"

# Per-process accumulator: experiment -> ordered {title: table rows}.
# ``record`` rewrites both artifacts from this state, so reruns replace
# rather than append, while multi-table benchmarks keep every table of the
# current run.
_TABLES: dict[str, dict[str, str]] = {}
_JSON_TABLES: dict[str, dict[str, list[dict[str, Any]]]] = {}
_JSON_EXTRAS: dict[str, dict[str, Any]] = {}


def _txt_path(experiment: str) -> pathlib.Path:
    return RESULTS_DIR / f"{experiment}.txt"


def json_path(experiment: str) -> pathlib.Path:
    """Path of the machine-readable artifact, e.g. ``BENCH_E6.json``."""
    return RESULTS_DIR / f"BENCH_{experiment.upper()}.json"


def _jsonable(value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return repr(value)


def _rewrite(experiment: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    tables = _TABLES.get(experiment, {})
    _txt_path(experiment).write_text("\n\n".join(tables.values()) + "\n")
    payload = {
        "experiment": experiment,
        # Which code produced this artifact (package version, git SHA,
        # ledger schema).  A top-level key the regression gate never
        # compares — provenance identifies, it does not gate.
        "provenance": provenance(),
        "tables": [
            {"title": title, "rows": rows}
            for title, rows in _JSON_TABLES.get(experiment, {}).items()
        ],
    }
    payload.update(_JSON_EXTRAS.get(experiment, {}))
    json_path(experiment).write_text(json.dumps(payload, indent=2, sort_keys=True))


def record(experiment: str, rows: Sequence[Mapping[str, Any]], title: str) -> str:
    """Format, print and persist an experiment's result table.

    Idempotent per ``(experiment, title)``: recording the same title again
    replaces that table, and both artifacts are always rewritten whole, so
    stale tables from earlier runs (e.g. a title that differed only in a
    parameter value) never accumulate.
    """
    text = format_table(rows, title=title)
    _TABLES.setdefault(experiment, {})[title] = text
    _JSON_TABLES.setdefault(experiment, {})[title] = [
        {str(k): _jsonable(v) for k, v in row.items()} for row in rows
    ]
    _rewrite(experiment)
    print("\n" + text + "\n")
    return text


def attach_metrics(experiment: str, name: str, snapshot: Any) -> None:
    """Attach a ``MetricsSnapshot`` (or any JSON-able mapping) under
    ``metrics.<name>`` in the experiment's ``BENCH_*.json`` artifact."""
    if hasattr(snapshot, "to_json"):
        snapshot = json.loads(snapshot.to_json())
    extras = _JSON_EXTRAS.setdefault(experiment, {})
    extras.setdefault("metrics", {})[name] = _jsonable(snapshot)
    _rewrite(experiment)


def attach_series(experiment: str, name: str, snapshot: Any) -> None:
    """Attach a snapshot's time series under ``series.<name>`` in the
    experiment's ``BENCH_*.json``.

    Accepts a ``MetricsSnapshot`` (its ``.series`` payloads are taken) or a
    raw ``{key: payload}`` mapping.  Series live under their own top-level
    key, which the regression gate does not compare — they enrich the
    artifact (and the ``repro report`` dashboard) without changing what is
    gated, so attaching series to a benchmark never breaks its baseline.
    """
    payloads = getattr(snapshot, "series", snapshot)
    extras = _JSON_EXTRAS.setdefault(experiment, {})
    extras.setdefault("series", {})[name] = _jsonable(
        dict(sorted(payloads.items()))
    )
    _rewrite(experiment)


def bench_workers(default: int = 1) -> int:
    """Worker-process count for this benchmark run.

    Priority: a ``--workers N`` argument (benches run as scripts), then
    the ``REPRO_BENCH_WORKERS`` environment variable (how CI opts every
    bench in at once), then ``default``.  ``0`` means all available CPUs.
    """
    argv = sys.argv
    for i, arg in enumerate(argv):
        if arg == "--workers" and i + 1 < len(argv):
            return resolve_workers(int(argv[i + 1]))
        if arg.startswith("--workers="):
            return resolve_workers(int(arg.split("=", 1)[1]))
    raw = os.environ.get("REPRO_BENCH_WORKERS", "").strip()
    if raw:
        return resolve_workers(int(raw))
    return resolve_workers(default)


def attach_timing(
    experiment: str, name: str, seconds: float, workers: int = 1, **extra: Any
) -> None:
    """Record a wall-clock measurement under ``timings.<name>`` in the
    experiment's ``BENCH_*.json``.  Timing keys are host measurements: the
    regression gate (``repro bench --check``) skips them by design."""
    extras = _JSON_EXTRAS.setdefault(experiment, {})
    extras.setdefault("timings", {})[name] = _jsonable(
        {
            "wall_seconds": round(seconds, 4),
            "workers": workers,
            "cpus_available": available_workers(),
            **extra,
        }
    )
    _rewrite(experiment)


@contextlib.contextmanager
def bench_timer(experiment: str, workers: int = 1):
    """Time a benchmark's main body and attach it as ``timings.total``, so
    every artifact carries its wall-clock alongside the measured metric.
    On exit the finished artifact is also appended to the run ledger when
    ``REPRO_LEDGER`` names one (see :func:`record_ledger`)."""
    start = time.perf_counter()
    try:
        yield
    finally:
        attach_timing(experiment, "total", time.perf_counter() - start, workers)
        record_ledger(experiment)


def record_ledger(experiment: str) -> bool:
    """Append this benchmark's finished artifact to the run ledger.

    Off unless the ``REPRO_LEDGER`` environment variable names a ledger
    file (how the CI perf-smoke job opts in).  The record is the one
    ``repro bench --ledger`` appends for the artifact
    (:func:`repro.analysis.benchgate.bench_record`), so reruns at the
    same code version are cache hits, while a changed *measured* value
    under an unchanged fingerprint is preserved as determinism-violation
    evidence for ``repro history check``.
    """
    from repro.analysis.benchgate import bench_record
    from repro.obs.ledger import ledger_from_env

    ledger = ledger_from_env()
    if ledger is None:
        return False
    payload = json.loads(json_path(experiment).read_text())
    return ledger.append(bench_record(experiment, payload))


def record_speedup(
    experiment: str,
    run: Callable[[int], Any],
    workers: int = 4,
    name: str = "speedup_probe",
) -> float:
    """Time ``run(1)`` vs ``run(workers)`` and attach the observed speedup.

    The probe measures the parallel engine on this benchmark's own
    workload.  The artifact records the CPU count alongside, so a ~1×
    result on a single-core host reads as what it is — no parallel
    hardware — rather than an engine regression; the bench gate never
    compares timing values.
    """
    start = time.perf_counter()
    run(1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    run(workers)
    parallel_s = time.perf_counter() - start
    speedup = serial_s / parallel_s if parallel_s > 0 else 0.0
    extras = _JSON_EXTRAS.setdefault(experiment, {})
    extras.setdefault("timings", {})[name] = {
        "serial_seconds": round(serial_s, 4),
        "parallel_seconds": round(parallel_s, 4),
        "workers": workers,
        "speedup": round(speedup, 3),
        "cpus_available": available_workers(),
    }
    _rewrite(experiment)
    print(
        f"[{experiment}] speedup probe: serial {serial_s:.2f}s, "
        f"{workers} workers {parallel_s:.2f}s -> {speedup:.2f}x "
        f"({available_workers()} CPUs available)"
    )
    return speedup


def reset(experiment: str) -> None:
    """Clear a previous run's persisted artifacts (called at bench start)."""
    _TABLES.pop(experiment, None)
    _JSON_TABLES.pop(experiment, None)
    _JSON_EXTRAS.pop(experiment, None)
    for path in (_txt_path(experiment), json_path(experiment)):
        if path.exists():
            path.unlink()
