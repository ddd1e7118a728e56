"""Regenerate the A/B equivalence golden file (``ab_golden.json``).

The golden file pins the *observable* outputs of fixed-seed runs across
the consensus, fuzz and campaign entry points: decisions, step counts,
audit numbers, metrics-snapshot digests, causal-report digests, and the
serial-vs-parallel merge digest.  It was recorded before the hot-path
overhaul (ISSUE 5) and must never change as a side effect of performance
work — ``tests/test_ab_golden.py`` asserts every value on every run.

Regenerating is only legitimate when a change *intentionally* alters
simulation semantics (new RNG discipline, protocol change):

    PYTHONPATH=src python tests/golden/generate_ab_golden.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

from repro.analysis.experiment import repeat_runs
from repro.consensus.ads import AdsConsensus
from repro.faults.campaign import run_mutation_campaign
from repro.obs.causality import causal_report_for
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.resilience import RunPlan
from repro.verify.fuzz import fuzz_consensus

GOLDEN_PATH = pathlib.Path(__file__).parent / "ab_golden.json"

CONSENSUS_SEEDS = list(range(10))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def consensus_goldens() -> list[dict]:
    """Fixed-seed ADS runs: outcome, audit and metrics digests."""
    rows = []
    for seed in CONSENSUS_SEEDS:
        inputs = [(seed + i) % 2 for i in range(4)]
        run = AdsConsensus().run(inputs, seed=seed)
        assert run.metrics is not None
        rows.append(
            {
                "seed": seed,
                "inputs": inputs,
                "decisions": {str(k): v for k, v in sorted(run.decisions.items())},
                "total_steps": run.total_steps,
                "steps_by_pid": {
                    str(k): v for k, v in sorted(run.outcome.steps_by_pid.items())
                },
                "audit_max_magnitude": run.audit.max_magnitude,
                "audit_max_width": run.audit.max_width,
                "audit_writes": run.audit.writes,
                "metrics_sha256": _sha(run.metrics.to_json()),
            }
        )
    return rows


def causal_golden() -> dict:
    """A fully recorded run's causal-report JSON digest."""
    run = AdsConsensus().run(
        [0, 1, 1],
        seed=0,
        record_events=True,
        record_spans=True,
        keep_simulation=True,
    )
    report = causal_report_for(run.simulation, run.outcome)
    return {
        "critical_length": report.critical_length,
        "report_sha256": _sha(report.to_json()),
    }


def fuzz_golden() -> dict:
    """A small fuzz grid (crashes + recoveries) over fixed seeds."""
    report = fuzz_consensus(
        lambda: AdsConsensus(),
        n_values=(2, 3),
        runs_per_cell=3,
        master_seed=0,
    )
    return {
        "runs": report.runs,
        "steps_total": report.steps_total,
        "recovery_runs": report.recovery_runs,
        "failures": [str(f) for f in report.failures],
        "by_scheduler": dict(sorted(report.by_scheduler.items())),
    }


def campaign_golden() -> dict:
    """The checker mutation campaign's full JSON digest."""
    report = run_mutation_campaign(seed=0, consensus_max_steps=50_000)
    return {
        "ok": report.ok,
        "holes": sorted(report.holes),
        "report_sha256": _sha(report.to_json()),
    }


def parallel_merge_golden() -> dict:
    """Serial vs 2-worker replication must merge byte-identically."""

    def run_once(seed: int):
        run = AdsConsensus().run([seed % 2, 1, 0], seed=seed)
        assert run.metrics is not None
        return run.metrics

    serial = [s.relabel(task=i) for i, s in enumerate(repeat_runs(run_once, range(6)))]
    parallel = [
        s.relabel(task=i)
        for i, s in enumerate(repeat_runs(run_once, range(6), RunPlan(workers=2)))
    ]
    merged_serial = merge_snapshots(serial).to_json()
    merged_parallel = merge_snapshots(parallel).to_json()
    assert merged_serial == merged_parallel
    return {"merged_sha256": _sha(merged_serial)}


def disabled_instrumentation_golden() -> list[dict]:
    """Metrics-off / trace-off runs: decisions and steps only."""
    rows = []
    for seed in CONSENSUS_SEEDS:
        inputs = [(seed + i) % 2 for i in range(4)]
        run = AdsConsensus().run(
            inputs, seed=seed, metrics=MetricsRegistry(enabled=False)
        )
        rows.append(
            {
                "seed": seed,
                "decisions": {str(k): v for k, v in sorted(run.decisions.items())},
                "total_steps": run.total_steps,
            }
        )
    return rows


def main() -> None:
    payload = {
        "consensus": consensus_goldens(),
        "disabled_instrumentation": disabled_instrumentation_golden(),
        "causal": causal_golden(),
        "fuzz": fuzz_golden(),
        "campaign": campaign_golden(),
        "parallel_merge": parallel_merge_golden(),
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
