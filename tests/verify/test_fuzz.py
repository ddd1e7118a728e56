"""Tests for the fuzz harness (and a small real campaign)."""

from dataclasses import replace

import pytest

from repro.consensus import AdsConsensus, BoundedLocalCoinConsensus
from repro.faults.plan import FaultPlan
from repro.parallel import ParallelExecutionError
from repro.resilience import RunPlan
from repro.verify.fuzz import DEFAULT_SCHEDULERS, FuzzFailure, fuzz_consensus


def test_small_campaign_on_the_paper_protocol_is_clean():
    report = fuzz_consensus(
        AdsConsensus, n_values=(2, 3), runs_per_cell=3, master_seed=7
    )
    assert report.ok, [str(f) for f in report.failures]
    assert report.runs == 2 * 4 * 3  # n values × schedulers × reps
    assert "CLEAN" in report.summary()
    assert report.steps_total > 0


def test_extra_check_is_applied():
    calls = {"count": 0}

    def memory_check(run):
        calls["count"] += 1
        if run.audit.max_magnitude > 10**9:
            return ["memory exploded"]
        return []

    from repro.runtime import RandomScheduler

    report = fuzz_consensus(
        AdsConsensus,
        n_values=(2,),
        runs_per_cell=2,
        schedulers={"random": lambda seed: RandomScheduler(seed=seed)},
        extra_check=memory_check,
        master_seed=1,
    )
    assert report.ok
    assert calls["count"] == report.runs


def test_failures_are_replayable_records():
    # Force failures with an extra check that always fires.
    report = fuzz_consensus(
        AdsConsensus,
        n_values=(2,),
        runs_per_cell=2,
        extra_check=lambda run: ["planted"],
        stop_on_first_failure=True,
        master_seed=3,
    )
    assert not report.ok
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert isinstance(failure, FuzzFailure)
    assert "planted" in str(failure)
    assert failure.n == 2 and failure.inputs and failure.seed >= 0


def test_campaign_covers_bounded_local_coin_too():
    report = fuzz_consensus(
        BoundedLocalCoinConsensus,
        n_values=(3,),
        runs_per_cell=2,
        master_seed=11,
    )
    assert report.ok, [str(f) for f in report.failures]


def test_scheduler_counts_tracked():
    report = fuzz_consensus(AdsConsensus, n_values=(2,), runs_per_cell=2,
                            master_seed=5)
    assert set(report.by_scheduler) == {"random", "round-robin", "lockstep", "split"}
    assert all(v == 2 for v in report.by_scheduler.values())


def test_recovery_runs_are_exercised_and_clean():
    report = fuzz_consensus(
        AdsConsensus,
        n_values=(2, 3),
        runs_per_cell=3,
        crash_probability=1.0,
        recovery_probability=1.0,
        master_seed=17,
    )
    assert report.ok, [str(f) for f in report.failures]
    assert report.recovery_runs > 0
    assert "with recoveries" in report.summary()


def test_recovery_is_skipped_for_protocols_without_support():
    from repro.consensus import AspnesHerlihyConsensus
    from repro.runtime import RandomScheduler

    # Restarting its program would re-propose over live state, so the fuzz
    # grid must never attach a recovery plan to it.
    assert not AspnesHerlihyConsensus.supports_recovery
    # The strip-based protocols keep all state in the shared cell and
    # inherit the ADS recovery path, so they do support recovery.
    assert BoundedLocalCoinConsensus.supports_recovery
    report = fuzz_consensus(
        AspnesHerlihyConsensus,
        n_values=(2,),
        runs_per_cell=3,
        schedulers={"random": lambda seed: RandomScheduler(seed=seed)},
        crash_probability=1.0,
        recovery_probability=1.0,
        master_seed=2,
    )
    assert report.ok, [str(f) for f in report.failures]
    assert report.recovery_runs == 0


def test_fault_cell_counts_detections_not_failures():
    report = fuzz_consensus(
        AdsConsensus,
        n_values=(2,),
        runs_per_cell=3,
        crash_probability=0.0,
        fault_probability=1.0,
        master_seed=23,
    )
    # Injected faults may break validation, but faulty runs never land in
    # report.failures — they land in the detection counters.
    assert report.ok, [str(f) for f in report.failures]
    assert report.fault_runs == report.runs
    assert report.fault_injections > 0
    assert "with faults" in report.summary()


def test_degraded_fault_free_run_is_reported_as_failure():
    # A tiny budget forces a degraded outcome; without faults that is a
    # (liveness) failure, surfaced with the diagnosis instead of a raise.
    report = fuzz_consensus(
        AdsConsensus,
        n_values=(3,),
        runs_per_cell=1,
        crash_probability=0.0,
        max_steps=30,
        master_seed=1,
    )
    assert not report.ok
    assert report.degraded_runs == report.runs
    failure = report.failures[0]
    assert failure.degraded
    assert any("degraded" in p for p in failure.problems)


def test_expect_fault_detection_flags_a_detection_hole():
    # Rate-0 plans inject nothing, so no detections and no hole; a plan
    # that injects but is fully masked must surface as a campaign failure.
    report = fuzz_consensus(
        AdsConsensus,
        n_values=(2,),
        runs_per_cell=2,
        crash_probability=0.0,
        fault_probability=1.0,
        # Stale reads are masked by the handshake scan: detections stay 0.
        fault_plan_factory=lambda rng: FaultPlan.single(
            "stale_read", rate=0.01, targets=("mem.V",), seed=rng.randrange(2**31)
        ),
        expect_fault_detection=True,
        master_seed=29,
    )
    if report.fault_injections > 0 and report.fault_detections == 0:
        assert not report.ok
        assert "nothing was detected" in str(report.failures[-1])


def _chaos_fault_cell(runs_per_cell):
    """``repro chaos``'s fault-injection cell (n = 3, lockstep) at its
    default seed, run in-process."""
    return fuzz_consensus(
        AdsConsensus,
        n_values=(3,),
        runs_per_cell=runs_per_cell,
        schedulers={"lockstep": DEFAULT_SCHEDULERS["lockstep"]},
        crash_probability=0.0,
        fault_probability=1.0,
        master_seed=0,
        plan=RunPlan(workers=1),
    )


def test_a_fault_run_stopped_on_an_illegal_view_counts_as_a_detection():
    # Repetition 27 injects faults that leave a positive cycle in the
    # scanned edge rows; the protocol's decoder rejects it mid-run.
    before, report = _chaos_fault_cell(27), _chaos_fault_cell(28)
    assert report.ok, [str(f) for f in report.failures]
    assert report.runs == report.fault_runs == 28
    assert report.fault_detections == before.fault_detections + 1
    # The stopped run keeps what it injected and the steps it took.
    assert report.fault_injections > before.fault_injections
    assert report.steps_total > before.steps_total


class StuckCycleAds(AdsConsensus):
    """A protocol bug: each process writes a fixed edge row, and the three
    rows decode to the positive cycle 0 -> 1 -> 2 -> 0."""

    ROWS = ((0, 1, 0), (0, 0, 1), (1, 0, 0))

    def _inc(self, i, cell, graph):
        return replace(super()._inc(i, cell, graph), edges=self.ROWS[i])


def test_a_fault_free_run_meeting_an_illegal_view_still_fails_its_cell():
    # The cell's own error, not one raised while counting the run.
    failed_with = r"\]: PositiveCycleError: positive cycle detected"
    with pytest.raises(ParallelExecutionError, match=failed_with):
        fuzz_consensus(
            StuckCycleAds,
            n_values=(3,),
            runs_per_cell=1,
            schedulers={"random": DEFAULT_SCHEDULERS["random"]},
            crash_probability=0.0,
            plan=RunPlan(workers=1),
        )
