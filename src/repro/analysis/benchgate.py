"""The benchmark regression gate: compare ``BENCH_*.json`` to baselines.

Every benchmark writes a machine-readable artifact
(``benchmarks/results/BENCH_<ID>.json``, see ``benchmarks/_common.py``)
whose measured values are **deterministic per seed** — the simulations
draw all randomness from derived streams.  That makes regression gating
simple: check the current artifact against a checked-in baseline
(``benchmarks/baselines/BENCH_<ID>.json``) value by value, within a
relative tolerance band.

What is compared: every numeric cell of every result table, plus any
attached metrics snapshots.  What is *not*: wall-clock data (timings,
speedups, worker counts, cpu counts) — those measure the host, not the
protocols, and live under keys the gate skips by name.

Used by ``repro bench --check`` locally and the CI ``bench-gate`` job.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

#: Key substrings (lowercased) whose values measure the host rather than
#: the simulation — never compared against baselines.
TIMING_KEY_MARKERS = (
    "wall",
    "seconds",
    "elapsed",
    "speedup",
    "workers",
    "cpu",
    "timing",
    "per_sec",
)

DEFAULT_TOLERANCE = 0.10


def is_timing_key(key: str) -> bool:
    lowered = key.lower()
    return any(marker in lowered for marker in TIMING_KEY_MARKERS)


def strip_timing_values(payload: Any) -> Any:
    """A deep copy of a payload with every timing-marker key removed.

    The inverse view of :func:`is_timing_key`: what remains is exactly
    the host-independent content the gate compares, which is also what
    the run ledger files under a record's deterministic identity."""
    if isinstance(payload, Mapping):
        return {
            str(k): strip_timing_values(v)
            for k, v in payload.items()
            if not is_timing_key(str(k))
        }
    if isinstance(payload, list):
        return [strip_timing_values(v) for v in payload]
    return payload


def bench_record(experiment: str, payload: Mapping[str, Any]):
    """The run-ledger record of a ``BENCH_<experiment>.json`` artifact.

    Its deterministic identity is the artifact's ``tables`` and
    ``metrics`` minus every timing-marker key, exactly what the gate
    compares; the ``timings`` ride outside it.  Recording one artifact
    twice (at bench time and by ``repro bench --ledger``) is therefore a
    cache hit, not a duplicate."""
    from repro.obs.ledger import make_record

    return make_record(
        kind="bench",
        experiment=f"bench:{experiment}",
        seed=0,
        config={"experiment": experiment, "kind": "bench"},
        outcome=strip_timing_values(
            {
                "tables": payload.get("tables", []),
                "metrics": payload.get("metrics", {}),
            }
        ),
        timings=payload.get("timings", {}),
    )


@dataclass
class GateResult:
    """Outcome of gating one experiment's artifact against its baseline.

    ``problems`` are the human-readable findings; ``deviations`` mirror
    the value-level ones structurally (location, expected, actual) so the
    CLI can print an expected-vs-actual diff instead of a bare mismatch.
    """

    experiment: str
    problems: list[str] = field(default_factory=list)
    compared: int = 0
    deviations: list[dict] = field(default_factory=list)
    baseline_file: str = ""
    artifact_file: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.problems)} deviations"
        text = f"{self.experiment.upper()}: {self.compared} values compared, {status}"
        if not self.ok and self.baseline_file:
            text += f" (baseline {self.baseline_file})"
        return text


def within_tolerance(baseline: float, measured: float, tolerance: float) -> bool:
    """The repo-wide relative comparator: equal, or within ``tolerance``
    of the larger magnitude.  Shared by the benchmark gate and the run
    ledger's rolling-baseline trend gate (``repro history check``)."""
    if baseline == measured:
        return True
    denom = max(abs(baseline), abs(measured), 1e-12)
    return abs(measured - baseline) / denom <= tolerance


# Backwards-compatible private alias (pre-ledger name).
_within = within_tolerance


def _compare_value(
    result: GateResult,
    location: str,
    baseline: Any,
    measured: Any,
    tolerance: float,
) -> None:
    if isinstance(baseline, bool) or isinstance(measured, bool):
        # bools are ints in Python; compare them exactly, not numerically.
        if baseline != measured:
            result.problems.append(
                f"{location}: expected {baseline!r}, got {measured!r}"
            )
            result.deviations.append(
                {"location": location, "expected": baseline, "actual": measured}
            )
        result.compared += 1
        return
    if isinstance(baseline, (int, float)) and isinstance(measured, (int, float)):
        result.compared += 1
        if not within_tolerance(float(baseline), float(measured), tolerance):
            denom = max(abs(baseline), abs(measured), 1e-12)
            drift = abs(measured - baseline) / denom
            result.problems.append(
                f"{location}: {measured!r} deviates {drift:.1%} from baseline "
                f"{baseline!r} (tolerance {tolerance:.0%})"
            )
            result.deviations.append(
                {
                    "location": location,
                    "expected": baseline,
                    "actual": measured,
                    "drift": round(drift, 4),
                }
            )
        return
    if isinstance(baseline, Mapping) and isinstance(measured, Mapping):
        for key in sorted(set(baseline) | set(measured)):
            if is_timing_key(str(key)):
                continue
            if key not in baseline:
                result.problems.append(f"{location}.{key}: not in baseline")
            elif key not in measured:
                result.problems.append(f"{location}.{key}: missing from artifact")
            else:
                _compare_value(
                    result, f"{location}.{key}", baseline[key], measured[key], tolerance
                )
        return
    if isinstance(baseline, list) and isinstance(measured, list):
        if len(baseline) != len(measured):
            result.problems.append(
                f"{location}: {len(measured)} entries vs baseline {len(baseline)}"
            )
            return
        for i, (b, m) in enumerate(zip(baseline, measured)):
            _compare_value(result, f"{location}[{i}]", b, m, tolerance)
        return
    result.compared += 1
    if baseline != measured:
        result.problems.append(f"{location}: expected {baseline!r}, got {measured!r}")
        result.deviations.append(
            {"location": location, "expected": baseline, "actual": measured}
        )


def compare_payloads(
    experiment: str,
    baseline: Mapping[str, Any],
    measured: Mapping[str, Any],
    tolerance: float = DEFAULT_TOLERANCE,
) -> GateResult:
    """Gate one artifact payload against its baseline payload.

    Tables are matched by title (order-insensitive) so adding a table is
    reported as exactly one problem, not a cascade of shifted rows.
    """
    result = GateResult(experiment=experiment)
    base_tables = {
        t.get("title", ""): t.get("rows", []) for t in baseline.get("tables", [])
    }
    meas_tables = {
        t.get("title", ""): t.get("rows", []) for t in measured.get("tables", [])
    }
    for title in sorted(set(base_tables) | set(meas_tables)):
        if title not in meas_tables:
            result.problems.append(f"table {title!r}: missing from artifact")
        elif title not in base_tables:
            result.problems.append(f"table {title!r}: not in baseline")
        else:
            _compare_value(
                result,
                f"table {title!r}",
                base_tables[title],
                meas_tables[title],
                tolerance,
            )
    _compare_value(
        result,
        "metrics",
        baseline.get("metrics", {}),
        measured.get("metrics", {}),
        tolerance,
    )
    return result


def check_experiment(
    experiment: str,
    results_dir: pathlib.Path,
    baselines_dir: pathlib.Path,
    tolerance: float = DEFAULT_TOLERANCE,
) -> GateResult:
    """Load one experiment's artifact + baseline from disk and gate them."""
    name = f"BENCH_{experiment.upper()}.json"
    artifact = pathlib.Path(results_dir) / name
    baseline = pathlib.Path(baselines_dir) / name
    result = GateResult(
        experiment=experiment,
        baseline_file=str(baseline),
        artifact_file=str(artifact),
    )
    if not baseline.exists():
        result.problems.append(
            f"no baseline {baseline} — record one with `repro bench --update`"
        )
        return result
    if not artifact.exists():
        result.problems.append(
            f"no artifact {artifact} — run the benchmark first "
            f"(`python benchmarks/bench_{experiment}_*.py`)"
        )
        return result
    result = compare_payloads(
        experiment,
        json.loads(baseline.read_text()),
        json.loads(artifact.read_text()),
        tolerance,
    )
    result.baseline_file = str(baseline)
    result.artifact_file = str(artifact)
    return result


def check_experiments(
    experiments: Iterable[str],
    results_dir: pathlib.Path,
    baselines_dir: pathlib.Path,
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[GateResult]:
    return [
        check_experiment(exp, results_dir, baselines_dir, tolerance)
        for exp in experiments
    ]


def update_baselines(
    experiments: Iterable[str],
    results_dir: pathlib.Path,
    baselines_dir: pathlib.Path,
) -> list[str]:
    """Copy current artifacts over the baselines; returns experiments copied."""
    results_dir = pathlib.Path(results_dir)
    baselines_dir = pathlib.Path(baselines_dir)
    baselines_dir.mkdir(parents=True, exist_ok=True)
    copied = []
    for experiment in experiments:
        name = f"BENCH_{experiment.upper()}.json"
        artifact = results_dir / name
        if artifact.exists():
            (baselines_dir / name).write_text(artifact.read_text())
            copied.append(experiment)
    return copied
