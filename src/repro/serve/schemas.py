"""Job specs: validation, canonicalization, content-addressed identity.

A job spec is a small JSON object — ``{"kind": "sweep", "params":
{...}, "priority": "normal"}`` — and this module turns whatever a
client POSTs into its *canonical* form: unknown keys rejected, defaults
filled in from the same tables the CLI flags default to
(:mod:`repro.workloads`), values type- and range-checked.  The
canonical spec is then fingerprinted exactly like a ledger record —
SHA-256 over :func:`~repro.obs.ledger.canonical_json` plus the code
version — and that fingerprint *is* the job id: submitting the same
work twice yields the same id, so the queue dedupes by construction
and a completed job answers repeat submissions from its result.
"""

from __future__ import annotations

import hashlib
from typing import Any, Mapping

from repro.obs.ledger import canonical_json
from repro.resilience import Priority
from repro.version import code_version
from repro.workloads import (
    CHAOS_DEFAULTS,
    PROTOCOLS,
    SCHEDULERS,
    SWEEP_DEFAULTS,
    SWEEP_METRICS,
)


class SpecError(ValueError):
    """A job spec the service refuses; the message is the HTTP 400 body."""


#: The job kinds the dispatcher knows how to run.
JOB_KINDS = ("sweep", "fuzz", "campaign", "chaos")

#: Request priority names → engine priority classes (shed order).
PRIORITIES = {
    "critical": Priority.CRITICAL,
    "normal": Priority.NORMAL,
    "best-effort": Priority.BEST_EFFORT,
}

#: Per-kind parameter defaults.  The sweep and chaos rows *are*
#: :data:`repro.workloads.SWEEP_DEFAULTS` and ``CHAOS_DEFAULTS`` — an
#: empty HTTP spec and a bare ``repro sweep`` or ``repro chaos`` name
#: identical ledger cells.
PARAM_DEFAULTS: dict[str, dict[str, Any]] = {
    "sweep": dict(SWEEP_DEFAULTS),
    "fuzz": {
        "protocol": "ads",
        "n_values": [2, 3],
        "runs_per_cell": 10,
        "crash_probability": 0.5,
        "recovery_probability": 0.5,
        "fault_probability": 0.0,
        "seed": 0,
    },
    "campaign": {
        "seed": 0,
        "consensus_max_steps": 200_000,
    },
    "chaos": dict(CHAOS_DEFAULTS),
}


def _require_int(params: Mapping[str, Any], key: str, minimum: int) -> int:
    value = params[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"params.{key} must be an integer, got {value!r}")
    if value < minimum:
        raise SpecError(f"params.{key} must be >= {minimum}, got {value}")
    return value


def _require_probability(params: Mapping[str, Any], key: str) -> float:
    value = params[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"params.{key} must be a number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise SpecError(f"params.{key} must be in [0, 1], got {value}")
    return float(value)


def _require_n_values(params: Mapping[str, Any]) -> list[int]:
    values = params["n_values"]
    if (
        not isinstance(values, list)
        or not values
        or any(isinstance(v, bool) or not isinstance(v, int) for v in values)
    ):
        raise SpecError(
            f"params.n_values must be a non-empty list of integers, "
            f"got {values!r}"
        )
    if any(v < 1 for v in values):
        raise SpecError(f"params.n_values must all be >= 1, got {values!r}")
    return list(values)


def _require_choice(
    params: Mapping[str, Any], key: str, choices: Any
) -> str:
    value = params[key]
    if value not in choices:
        raise SpecError(
            f"params.{key} must be one of {sorted(choices)}, got {value!r}"
        )
    return value


def validate_spec(payload: Any) -> dict[str, Any]:
    """Canonicalize one submitted job spec; raise :class:`SpecError`.

    Returns ``{"kind": ..., "priority": ..., "params": {...}}`` with
    every parameter present (defaults merged in) and validated — the
    exact dict :func:`job_fingerprint` hashes and the dispatcher runs.
    """
    if not isinstance(payload, Mapping):
        raise SpecError(f"job spec must be a JSON object, got {payload!r}")
    unknown = set(payload) - {"kind", "params", "priority"}
    if unknown:
        raise SpecError(f"unknown spec keys: {sorted(unknown)}")
    kind = payload.get("kind")
    if kind not in JOB_KINDS:
        raise SpecError(f"kind must be one of {list(JOB_KINDS)}, got {kind!r}")
    priority = payload.get("priority", "normal")
    if priority not in PRIORITIES:
        raise SpecError(
            f"priority must be one of {sorted(PRIORITIES)}, got {priority!r}"
        )
    raw = payload.get("params", {})
    if not isinstance(raw, Mapping):
        raise SpecError(f"params must be a JSON object, got {raw!r}")
    defaults = PARAM_DEFAULTS[kind]
    unknown = set(raw) - set(defaults)
    if unknown:
        raise SpecError(
            f"unknown {kind} params: {sorted(unknown)} "
            f"(accepted: {sorted(defaults)})"
        )
    params: dict[str, Any] = {**defaults, **dict(raw)}

    if kind == "sweep":
        _require_choice(params, "protocol", PROTOCOLS)
        _require_choice(params, "scheduler", SCHEDULERS)
        _require_choice(params, "metric", SWEEP_METRICS)
        params["n_values"] = _require_n_values(params)
        _require_int(params, "reps", 1)
        _require_int(params, "seed_base", 0)
        _require_int(params, "max_steps", 1)
    elif kind == "fuzz":
        _require_choice(params, "protocol", PROTOCOLS)
        params["n_values"] = _require_n_values(params)
        _require_int(params, "runs_per_cell", 1)
        _require_int(params, "seed", 0)
        params["crash_probability"] = _require_probability(
            params, "crash_probability"
        )
        params["recovery_probability"] = _require_probability(
            params, "recovery_probability"
        )
        params["fault_probability"] = _require_probability(
            params, "fault_probability"
        )
    elif kind == "campaign":
        _require_int(params, "seed", 0)
        _require_int(params, "consensus_max_steps", 1)
    else:  # chaos
        _require_int(params, "seed", 0)
        _require_int(params, "runs_per_cell", 1)

    return {"kind": kind, "priority": priority, "params": params}


def job_fingerprint(spec: Mapping[str, Any], code: str | None = None) -> str:
    """SHA-256 content address of one canonical job spec.

    Folds in the code version exactly like ledger fingerprints do — the
    same spec against changed code is new work, not a stale cache hit.
    ``priority`` is deliberately *excluded*: the work is identical at
    any priority, so resubmitting at a higher class finds the same job.
    """
    payload = canonical_json(
        {
            "kind": spec["kind"],
            "params": spec["params"],
            "code": code or code_version(),
        }
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
