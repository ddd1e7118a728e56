"""The trend metrics of the run ledger and the history gate's defaults.

Each named trend metric reads one number, or ``None``, from a
:class:`~repro.obs.ledger.LedgerRecord`; :mod:`repro.obs.projections`
builds its trend series, trend tables and rolling-baseline gate on them.
The names and defaults live apart from the projections so that
``repro history``'s parser can offer them without importing the gate.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.obs.ledger import LedgerRecord
from repro.obs.metrics import parse_key

#: Rolling-baseline window (records) for regression detection.
DEFAULT_WINDOW = 5

#: Relative tolerance for the rolling-baseline gate (mirrors the bench
#: gate's default so one number means one thing repo-wide).
DEFAULT_TOLERANCE = 0.10


# -- trend metric extractors -------------------------------------------------


def _from_outcome(record: LedgerRecord, *keys: str) -> float | None:
    for key in keys:
        value = record.outcome.get(key)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    return None


def _steps(record: LedgerRecord) -> float | None:
    return _from_outcome(record, "total_steps", "steps_total", "steps")


def _steps_per_sec(record: LedgerRecord) -> float | None:
    """Deepest-first scan of the (host-measured) timings for a throughput
    figure — benchmark and profile records carry one, sweeps do not."""

    def scan(payload: Any) -> float | None:
        if isinstance(payload, Mapping):
            for key in sorted(payload):
                lowered = str(key).lower()
                value = payload[key]
                if "per_sec" in lowered and isinstance(value, (int, float)):
                    return float(value)
                found = scan(value)
                if found is not None:
                    return found
        return None

    return scan(record.timings)


def _expected_steps(record: LedgerRecord) -> float | None:
    """Sweep sample values: each sweep-cell record measured one seeded
    run's step count, so the trend over records *is* the expected-steps
    distribution over time."""
    if record.kind != "sweep":
        return None
    return _from_outcome(record, "value")


def _counter_total(record: LedgerRecord, name: str) -> float | None:
    counters = (record.metrics or {}).get("counters")
    if not isinstance(counters, Mapping):
        return None
    values = [
        v for k, v in counters.items() if parse_key(str(k))[0] == name
    ]
    return float(sum(values)) if values else None


def _scan_retries(record: LedgerRecord) -> float | None:
    direct = _counter_total(record, "snapshot.scan_retries")
    if direct is not None:
        return direct
    return _from_outcome(record, "scan_retries")


def _disagreement_rate(record: LedgerRecord) -> float | None:
    rate = _from_outcome(record, "disagreement_rate")
    if rate is not None:
        return rate
    disagreement = record.outcome.get("disagreement")
    if isinstance(disagreement, bool):
        return float(disagreement)
    failures = record.outcome.get("failures")
    runs = record.outcome.get("runs")
    if isinstance(failures, list) and isinstance(runs, int) and runs > 0:
        return len(failures) / runs
    return None


def _memory_high_water(record: LedgerRecord) -> float | None:
    gauges = (record.metrics or {}).get("gauges")
    if isinstance(gauges, Mapping):
        values = [
            v
            for k, v in gauges.items()
            if parse_key(str(k))[0] == "memory.max_magnitude"
        ]
        if values:
            return float(max(values))
    audit = record.outcome.get("audit")
    if isinstance(audit, Mapping):
        value = audit.get("max_magnitude")
        if isinstance(value, (int, float)):
            return float(value)
    return None


#: The named trend metrics ``repro history trends`` exposes, in display
#: order.  Each extractor returns ``None`` when a record carries no value
#: for that metric (records never all carry everything).
TREND_METRICS: dict[str, Callable[[LedgerRecord], float | None]] = {
    "steps": _steps,
    "steps_per_sec": _steps_per_sec,
    "expected_steps": _expected_steps,
    "scan_retries": _scan_retries,
    "disagreement_rate": _disagreement_rate,
    "memory_high_water": _memory_high_water,
}
