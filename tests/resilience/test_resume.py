"""Crash-mid-campaign recovery and checkpoint/resume, end to end.

The PR's acceptance scenarios, proven on the real entry points:

- a campaign whose worker is SIGKILLed mid-run completes via the retry
  path with merged output (and ledger bytes) identical to an undisturbed
  run;
- an interrupted ledger-recorded campaign leaves a valid submission-order
  prefix behind, and the resumed run recomputes *only* the missing
  fingerprints (cache-hit accounting asserted), converging on a ledger
  byte-identical to the uninterrupted one.
"""

import json

import pytest

from repro.consensus import AdsConsensus
from repro.faults.campaign import run_mutation_campaign
from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry
from repro.parallel.engine import _fork_available
from repro.resilience import CrashOnce, FailurePolicy, RetryBackoff, RunPlan
from repro.verify.fuzz import fuzz_consensus
from repro.workloads import build_sweep

needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="fork start method unavailable"
)

FAST_RETRY = FailurePolicy.retry(max_attempts=3, backoff=RetryBackoff(base=0))


@pytest.fixture(autouse=True)
def _pinned_code_version(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-code-v1")


def _fuzz(ledger=None, workers=1, policy=None, task_wrapper=None):
    return fuzz_consensus(
        lambda: AdsConsensus(),
        n_values=(2, 3),
        runs_per_cell=2,
        crash_probability=1.0,
        recovery_probability=1.0,
        master_seed=0,
        plan=RunPlan(workers=workers, policy=policy, ledger=ledger),
        experiment="fuzz:resilience",
        task_wrapper=task_wrapper,
    )


# -- SIGKILL mid-campaign, retry to bit-identical completion ------------------


@needs_fork
def test_sigkilled_fuzz_worker_retries_to_identical_report_and_ledger(
    tmp_path,
):
    baseline_path = tmp_path / "baseline.jsonl"
    crashed_path = tmp_path / "crashed.jsonl"
    baseline = _fuzz(ledger=RunLedger(baseline_path), workers=2)

    marker = tmp_path / "crash-marker"
    disturbed = _fuzz(
        ledger=RunLedger(crashed_path),
        workers=2,
        policy=FAST_RETRY,
        task_wrapper=lambda fn: CrashOnce(fn, marker),
    )
    assert marker.exists()  # exactly one worker was actually SIGKILLed
    assert disturbed.runs == baseline.runs > 0
    assert disturbed.steps_total == baseline.steps_total
    assert [str(f) for f in disturbed.failures] == [
        str(f) for f in baseline.failures
    ]
    assert crashed_path.read_bytes() == baseline_path.read_bytes()


@needs_fork
def test_sigkilled_campaign_worker_retries_to_identical_json(tmp_path):
    baseline = run_mutation_campaign(
        consensus_max_steps=50_000, plan=RunPlan(workers=2)
    )
    marker = tmp_path / "crash-marker"
    disturbed = run_mutation_campaign(
        consensus_max_steps=50_000,
        plan=RunPlan(workers=2, policy=FAST_RETRY),
        task_wrapper=lambda fn: CrashOnce(fn, marker),
    )
    assert marker.exists()
    assert disturbed.to_json() == baseline.to_json()


@needs_fork
def test_sigkilled_batched_sweep_unit_retries_to_serial_ledger(tmp_path):
    serial_path = tmp_path / "serial.jsonl"
    build_sweep(n_values=(2, 3), reps=4).execute(
        RunPlan(workers=1, ledger=RunLedger(serial_path))
    )
    crashed_path = tmp_path / "crashed.jsonl"
    metrics = MetricsRegistry()
    sweep = build_sweep(n_values=(2, 3), reps=4)
    # A plain wrapper carries no fused-lane hooks, so every cell runs
    # through it and the first one SIGKILLs its worker mid-unit.
    cell = sweep.run_once
    crashing = CrashOnce(lambda task: cell(*task), tmp_path / "crash-marker")
    sweep.run_once = lambda n, seed: crashing((n, seed))
    sweep.execute(
        RunPlan(
            workers=2,
            batch_size=4,
            policy=FAST_RETRY,
            metrics=metrics,
            ledger=RunLedger(crashed_path),
        )
    )
    assert (tmp_path / "crash-marker").exists()
    assert metrics.snapshot().counter_total("resilience.retries") == 1
    assert crashed_path.read_bytes() == serial_path.read_bytes()


# -- interrupt / resume -------------------------------------------------------


def _truncate_to_prefix(path, keep):
    """Simulate an interrupt: keep the first ``keep`` checkpointed records."""
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) > keep, "fixture needs more records than the prefix"
    path.write_text("".join(lines[:keep]))
    return len(lines)


def test_resumed_fuzz_recomputes_only_missing_fingerprints(tmp_path):
    full_path = tmp_path / "full.jsonl"
    _fuzz(ledger=RunLedger(full_path))
    total = len(full_path.read_text().splitlines())

    # Interrupted copy: only the first two cells were checkpointed.
    resumed_path = tmp_path / "resumed.jsonl"
    resumed_path.write_bytes(full_path.read_bytes())
    _truncate_to_prefix(resumed_path, keep=2)

    resumed = _fuzz(ledger=RunLedger(resumed_path))
    assert resumed.cache_hits == 2  # exactly the checkpointed prefix
    assert resumed_path.read_bytes() == full_path.read_bytes()
    assert len(resumed_path.read_text().splitlines()) == total


def test_resumed_campaign_reports_cache_hits_out_of_band(tmp_path):
    path = tmp_path / "campaign.jsonl"
    first = run_mutation_campaign(
        consensus_max_steps=50_000, plan=RunPlan(ledger=RunLedger(path))
    )
    assert first.cache_hits == 0
    _truncate_to_prefix(path, keep=3)
    full_bytes_expected = run_mutation_campaign(
        consensus_max_steps=50_000, plan=RunPlan(ledger=RunLedger(path))
    )
    assert full_bytes_expected.cache_hits == 3
    # The resumed report is byte-identical to the undisturbed one:
    # cache_hits is runtime accounting and deliberately kept out of the
    # serialised payload.
    assert full_bytes_expected.to_json() == first.to_json()
    assert "cache_hits" not in json.loads(full_bytes_expected.to_json())


def test_ledger_counts_hits_and_misses(tmp_path):
    path = tmp_path / "fuzz.jsonl"
    first = RunLedger(path)
    _fuzz(ledger=first)
    assert first.hits == 0
    assert first.misses > 0

    second = RunLedger(path)
    _fuzz(ledger=second)
    assert second.hits == first.misses  # everything served from the ledger
    assert second.misses == 0


def test_no_cache_ledger_counts_every_lookup_as_miss(tmp_path):
    path = tmp_path / "fuzz.jsonl"
    _fuzz(ledger=RunLedger(path))
    uncached = RunLedger(path, use_cache=False)
    _fuzz(ledger=uncached)
    assert uncached.hits == 0
    assert uncached.misses > 0
