"""Projections over the run ledger: history, trends, gates, flakiness.

The ledger (:mod:`repro.obs.ledger`) is the event log; this module is the
read side.  Every projection is a pure function of a record list, so the
same ledger bytes always produce the same answers:

- :func:`history_rows` — per-experiment inventory (how many records,
  how many distinct fingerprints, whether any fingerprint is contested);
- :func:`trend_series` / :func:`trend_rows` — the paper's headline
  quantities as *series over recorded runs* instead of one-shot numbers:
  total steps, steps/sec, expected steps (sweep sample values), scan
  retries, disagreement rate, and the memory high-water mark (the
  extractors of :mod:`repro.obs.trends`);
- :func:`detect_regressions` — a rolling-baseline gate: the latest value
  of each (experiment, metric) trend is compared against the mean of the
  preceding window using the same relative-tolerance comparator as the
  benchmark gate (:func:`repro.analysis.benchgate.within_tolerance`);
- :func:`detect_violations` — the flakiness detector: any fingerprint
  filed under two *different* deterministic identities is a determinism
  violation, which in this repository (bit-identical replay everywhere)
  is alarm-grade, not noise;
- :func:`history_check` — the combination ``repro history check`` runs
  and CI gates on.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.analysis.benchgate import within_tolerance
from repro.obs.ledger import LedgerRecord
from repro.obs.trends import DEFAULT_TOLERANCE, DEFAULT_WINDOW, TREND_METRICS


# -- projections -------------------------------------------------------------


def filter_records(
    records: Iterable[LedgerRecord],
    experiment: str = "",
    kind: str = "",
) -> list[LedgerRecord]:
    """Records matching an experiment substring and/or an exact kind."""
    out = []
    for record in records:
        if experiment and experiment not in record.experiment:
            continue
        if kind and record.kind != kind:
            continue
        out.append(record)
    return out


def history_rows(records: Sequence[LedgerRecord]) -> list[dict[str, Any]]:
    """Per-(kind, experiment) inventory rows, in first-seen order."""
    groups: dict[tuple[str, str], list[LedgerRecord]] = {}
    for record in records:
        groups.setdefault((record.kind, record.experiment), []).append(record)
    rows = []
    for (kind, experiment), group in groups.items():
        by_fp: dict[str, set[str]] = {}
        for record in group:
            by_fp.setdefault(record.fingerprint, set()).add(record.identity())
        rows.append(
            {
                "kind": kind,
                "experiment": experiment,
                "records": len(group),
                "fingerprints": len(by_fp),
                "contested": sum(1 for ids in by_fp.values() if len(ids) > 1),
                "code_versions": len({r.code_version for r in group}),
            }
        )
    return rows


def trend_series(
    records: Sequence[LedgerRecord],
    metric: str,
    experiment: str = "",
) -> list[list[float]]:
    """``[record_index, value]`` points for one metric, in append order.

    The x-axis is the record's position in the ledger — append order is
    the ledger's notion of time (no wall clocks in deterministic records).
    """
    extractor = TREND_METRICS.get(metric)
    if extractor is None:
        raise KeyError(
            f"unknown trend metric {metric!r}; one of {sorted(TREND_METRICS)}"
        )
    points = []
    for index, record in enumerate(records):
        if experiment and experiment not in record.experiment:
            continue
        value = extractor(record)
        if value is not None:
            points.append([float(index), value])
    return points


def trend_rows(
    records: Sequence[LedgerRecord], experiment: str = ""
) -> list[dict[str, Any]]:
    """One row per (experiment, metric) trend with at least one point —
    the table behind ``repro history trends`` and the dashboard section."""
    experiments: list[str] = []
    for record in records:
        if record.experiment not in experiments:
            experiments.append(record.experiment)
    if experiment:
        experiments = [e for e in experiments if experiment in e]
    rows = []
    for exp in experiments:
        group = [r for r in records if r.experiment == exp]
        for metric, extractor in TREND_METRICS.items():
            values = [v for v in (extractor(r) for r in group) if v is not None]
            if not values:
                continue
            points = [[float(i), v] for i, v in enumerate(values)]
            rows.append(
                {
                    "experiment": exp,
                    "metric": metric,
                    "points": points,
                    "n": len(values),
                    "first": values[0],
                    "last": values[-1],
                    "mean": statistics.fmean(values),
                }
            )
    return rows


@dataclass(frozen=True)
class TrendAlert:
    """The latest value of one trend left its rolling-baseline band."""

    experiment: str
    metric: str
    baseline: float
    latest: float
    window: int
    tolerance: float

    @property
    def drift(self) -> float:
        denom = max(abs(self.baseline), abs(self.latest), 1e-12)
        return abs(self.latest - self.baseline) / denom

    def __str__(self) -> str:
        return (
            f"{self.experiment} {self.metric}: latest {self.latest:g} "
            f"deviates {self.drift:.1%} from the rolling baseline "
            f"{self.baseline:g} (window {self.window}, "
            f"tolerance {self.tolerance:.0%})"
        )


def detect_regressions(
    records: Sequence[LedgerRecord],
    window: int = DEFAULT_WINDOW,
    tolerance: float = DEFAULT_TOLERANCE,
    experiment: str = "",
) -> list[TrendAlert]:
    """Rolling-baseline regression detection over every trend.

    For each (experiment, metric) series with at least two points, the
    latest value is compared against the mean of up to ``window``
    preceding values with the bench-gate comparator.  Only the *latest*
    value is gated: a historical excursion that later recovered is data,
    not a standing alarm.
    """
    alerts = []
    for row in trend_rows(records, experiment=experiment):
        values = [p[1] for p in row["points"]]
        if len(values) < 2:
            continue
        baseline_values = values[-(window + 1) : -1]
        baseline = statistics.fmean(baseline_values)
        latest = values[-1]
        if not within_tolerance(baseline, latest, tolerance):
            alerts.append(
                TrendAlert(
                    experiment=row["experiment"],
                    metric=row["metric"],
                    baseline=baseline,
                    latest=latest,
                    window=len(baseline_values),
                    tolerance=tolerance,
                )
            )
    return alerts


@dataclass(frozen=True)
class DeterminismViolation:
    """One fingerprint filed under more than one deterministic identity."""

    fingerprint: str
    experiment: str
    kind: str
    records: int
    identities: int

    def __str__(self) -> str:
        return (
            f"{self.experiment} ({self.kind}): fingerprint "
            f"{self.fingerprint[:12]}… has {self.identities} distinct "
            f"outcomes across {self.records} records — the same (seed, "
            "config, code-version) must always reproduce byte-identically"
        )


def detect_violations(
    records: Sequence[LedgerRecord],
) -> list[DeterminismViolation]:
    """Flag every contested fingerprint (the flakiness detector)."""
    groups: dict[str, list[LedgerRecord]] = {}
    for record in records:
        groups.setdefault(record.fingerprint, []).append(record)
    violations = []
    for fingerprint, group in groups.items():
        identities = {r.identity() for r in group}
        if len(identities) > 1:
            violations.append(
                DeterminismViolation(
                    fingerprint=fingerprint,
                    experiment=group[0].experiment,
                    kind=group[0].kind,
                    records=len(group),
                    identities=len(identities),
                )
            )
    return violations


@dataclass
class HistoryCheck:
    """Everything ``repro history check`` gates on."""

    records: int
    regressions: list[TrendAlert] = field(default_factory=list)
    violations: list[DeterminismViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.violations

    def summary(self) -> str:
        if self.ok:
            return (
                f"history check: OK — {self.records} records, no trend "
                "regressions, no determinism violations"
            )
        return (
            f"history check: FAILED — {len(self.regressions)} trend "
            f"regression(s), {len(self.violations)} determinism "
            f"violation(s) across {self.records} records"
        )


def history_check(
    records: Sequence[LedgerRecord],
    window: int = DEFAULT_WINDOW,
    tolerance: float = DEFAULT_TOLERANCE,
    experiment: str = "",
) -> HistoryCheck:
    """Run both detectors; the projection behind ``repro history check``."""
    return HistoryCheck(
        records=len(records),
        regressions=detect_regressions(
            records, window=window, tolerance=tolerance, experiment=experiment
        ),
        violations=detect_violations(
            filter_records(records, experiment=experiment)
        ),
    )
