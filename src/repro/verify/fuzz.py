"""Randomized safety campaigns for consensus protocols.

The safety theorems hold on *every* execution, so the more diverse the
executions checked, the stronger the evidence.  This harness runs a
protocol factory across a grid of process counts, schedulers, crash plans
and seeds, validating every run and aggregating the outcome — the engine
behind experiment E11 and available as a user-facing tool::

    report = fuzz_consensus(lambda: AdsConsensus(), n_values=[2, 4],
                            runs_per_cell=25)
    assert report.ok, report.failures

Schedules covered by default: fair random, round-robin, the lockstep
barrier adversary, and the split adversary; half the runs add a random
crash plan (never killing everyone).  For protocols that support crash
recovery, some crashed runs additionally restart their victims
(:class:`~repro.runtime.scheduler.RecoveryPlan`); an optional fault cell
injects register faults and counts how often the validators catch them.
A fault run that stops because the protocol's strip decoder rejects an
illegal view (:class:`~repro.strip.edge_counters.IllFormedCounters` or
:class:`~repro.strip.distance_graph.PositiveCycleError`) counts as a
detection; the same error in a fault-free run still fails its cell.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.consensus.interface import ConsensusRun
from repro.consensus.validation import validate_run
from repro.faults.plan import FaultPlan
from repro.faults.watchdog import Watchdog
from repro.obs.metrics import MetricsRegistry
from repro.parallel import ParallelExecutionError
from repro.resilience.checkpoint import RunPlan, run_checkpointed
from repro.runtime.rng import derive_rng
from repro.runtime.scheduler import CrashPlan, RecoveryPlan
from repro.strip.distance_graph import PositiveCycleError
from repro.strip.edge_counters import IllFormedCounters
from repro.workloads import make_scheduler


#: Default livelock window (in simulation steps) for the per-run watchdog.
#: Healthy consensus runs move their progress counters (coin flips, round
#: advances) every few steps, so a window this wide never fires on them;
#: a genuinely frozen run is halted after the window instead of burning
#: its full step budget in a pool slot.
DEFAULT_LIVELOCK_WINDOW = 50_000

#: name → factory(seed).  Partials over :func:`repro.workloads.make_scheduler`
#: so the grid pickles; the key order is the grid order, and with it the
#: ledger order.
DEFAULT_SCHEDULERS: dict[str, Callable[[int], Any]] = {
    name: functools.partial(make_scheduler, name)
    for name in ("random", "round-robin", "lockstep", "split")
}


@dataclass
class FuzzFailure:
    """One unsafe run, with everything needed to replay it."""

    protocol: str
    n: int
    scheduler: str
    seed: int
    inputs: tuple
    crashes: dict[int, int]
    problems: list[str]
    recoveries: dict[int, int] = field(default_factory=dict)
    degraded: bool = False
    fault_plan: str | None = None

    def __str__(self) -> str:
        extras = ""
        if self.recoveries:
            extras += f" recoveries={self.recoveries}"
        if self.fault_plan:
            extras += f" faults={self.fault_plan}"
        if self.degraded:
            extras += " [degraded]"
        return (
            f"{self.protocol} n={self.n} scheduler={self.scheduler} "
            f"seed={self.seed} inputs={self.inputs} crashes={self.crashes}"
            f"{extras}: " + "; ".join(self.problems)
        )


@dataclass
class FuzzReport:
    """Aggregate result of a campaign."""

    runs: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    steps_total: int = 0
    by_scheduler: dict[str, int] = field(default_factory=dict)
    recovery_runs: int = 0
    degraded_runs: int = 0
    fault_runs: int = 0
    fault_injections: int = 0
    fault_detections: int = 0
    watchdog_halts: int = 0
    cache_hits: int = 0
    task_errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.task_errors

    def summary(self) -> str:
        if self.ok:
            status = "CLEAN"
        else:
            status = f"{len(self.failures)} FAILURES"
            if self.task_errors:
                status += f", {len(self.task_errors)} CELLS LOST"
        extras = ""
        if self.recovery_runs:
            extras += f", {self.recovery_runs} with recoveries"
        if self.fault_runs:
            extras += (
                f", {self.fault_runs} with faults "
                f"({self.fault_injections} injected, "
                f"{self.fault_detections} detected)"
            )
        if self.degraded_runs:
            extras += f", {self.degraded_runs} degraded"
        if self.watchdog_halts:
            extras += f", {self.watchdog_halts} watchdog halts"
        if self.cache_hits:
            extras += f", {self.cache_hits} cells from ledger"
        per_sched = ", ".join(
            f"{k}: {v}" for k, v in sorted(self.by_scheduler.items())
        )
        return (
            f"{self.runs} runs ({per_sched}), "
            f"{self.steps_total} total steps{extras}: {status}"
        )


@dataclass
class _CellOutcome:
    """Everything one (n, scheduler) grid cell contributes to the report.

    Picklable on purpose: parallel campaigns run each cell in a worker
    process and merge these in grid order, which keeps the final report
    bit-identical to the serial nested loop.  Also JSON round-trippable
    (:meth:`to_payload` / :meth:`from_payload`) so the run ledger can
    serve a previously recorded cell as a cache hit.
    """

    n: int
    scheduler: str
    runs: int = 0
    steps_total: int = 0
    recovery_runs: int = 0
    degraded_runs: int = 0
    fault_runs: int = 0
    fault_injections: int = 0
    fault_detections: int = 0
    watchdog_halts: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    stopped: bool = False

    def to_payload(self) -> dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["failures"] = [
            {
                **dataclasses.asdict(failure),
                "inputs": list(failure.inputs),
            }
            for failure in self.failures
        ]
        return payload

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "_CellOutcome":
        failures = []
        for raw in payload.get("failures", []):
            failures.append(
                FuzzFailure(
                    protocol=raw["protocol"],
                    n=int(raw["n"]),
                    scheduler=raw["scheduler"],
                    seed=int(raw["seed"]),
                    inputs=tuple(raw.get("inputs", ())),
                    # JSON turns int keys into strings; restore them.
                    crashes={int(k): v for k, v in raw.get("crashes", {}).items()},
                    problems=list(raw.get("problems", [])),
                    recoveries={
                        int(k): v for k, v in raw.get("recoveries", {}).items()
                    },
                    degraded=bool(raw.get("degraded", False)),
                    fault_plan=raw.get("fault_plan"),
                )
            )
        return cls(
            n=int(payload["n"]),
            scheduler=payload["scheduler"],
            runs=int(payload.get("runs", 0)),
            steps_total=int(payload.get("steps_total", 0)),
            recovery_runs=int(payload.get("recovery_runs", 0)),
            degraded_runs=int(payload.get("degraded_runs", 0)),
            fault_runs=int(payload.get("fault_runs", 0)),
            fault_injections=int(payload.get("fault_injections", 0)),
            fault_detections=int(payload.get("fault_detections", 0)),
            watchdog_halts=int(payload.get("watchdog_halts", 0)),
            failures=failures,
            stopped=bool(payload.get("stopped", False)),
        )


def _run_cell(
    spec: tuple[int, str],
    protocol_factory: Callable[[], Any],
    schedulers: dict[str, Callable[[int], Any]],
    runs_per_cell: int,
    crash_probability: float,
    recovery_probability: float,
    fault_probability: float,
    fault_plan_factory: Callable[[Any], FaultPlan] | None,
    fault_max_steps: int,
    max_steps: int,
    master_seed: int,
    extra_check: Callable[[ConsensusRun], list[str]] | None,
    stop_on_first_failure: bool,
    livelock_window: int | None,
) -> _CellOutcome:
    """Run every repetition of one grid cell; all rng derives from the cell
    identity, so the outcome is independent of where or when it runs."""
    n, scheduler_name = spec
    scheduler_factory = schedulers[scheduler_name]
    cell = _CellOutcome(n=n, scheduler=scheduler_name)
    for rep in range(runs_per_cell):
        rng = derive_rng(master_seed, "fuzz", n, scheduler_name, rep)
        seed = rng.randrange(2**31)
        inputs = [rng.randint(0, 1) for _ in range(n)]
        crashes = (
            CrashPlan.random(n, rng, horizon=500)
            if rng.random() < crash_probability
            else CrashPlan()
        )
        protocol = protocol_factory()
        recoveries = RecoveryPlan()
        if (
            protocol.supports_recovery
            and crashes.crash_at
            and rng.random() < recovery_probability
        ):
            recoveries = RecoveryPlan.random(crashes, rng, probability=1.0)
        faults = None
        if rng.random() < fault_probability:
            faults = (
                fault_plan_factory(rng)
                if fault_plan_factory is not None
                else FaultPlan.random(rng, targets=("mem.",))
            )
        # A per-run livelock watchdog turns a frozen simulation into a
        # degraded outcome after one window instead of letting it hold a
        # pool slot for the full step budget.  Only livelock halts: the
        # lockstep/split adversaries legitimately starve processes, so a
        # starvation halt would misfire on healthy adversarial runs.
        watchdog = (
            Watchdog(
                starvation_window=livelock_window,
                progress_window=livelock_window,
                check_every=256,
                halt_on=("livelock",),
            )
            if livelock_window
            else None
        )
        # A fault run keeps its registry: a run that stops on an illegal
        # view returns no snapshot to count its injections from.
        metrics = MetricsRegistry() if faults is not None else None
        try:
            run = protocol.run(
                inputs,
                scheduler=scheduler_factory(seed),
                seed=seed,
                crash_plan=crashes,
                recovery_plan=recoveries if recoveries.restart_at else None,
                fault_plan=faults,
                max_steps=fault_max_steps if faults is not None else max_steps,
                raise_on_budget=False,
                watchdog=watchdog,
                metrics=metrics,
            )
        except (IllFormedCounters, PositiveCycleError):
            if faults is None:
                raise
            # An injected fault made a scanned view illegal and the
            # protocol's strip decoder rejected it: a detection.
            cell.runs += 1
            cell.steps_total += metrics.counter_total("runtime.steps")
            cell.fault_runs += 1
            cell.fault_injections += metrics.counter_total("faults.injected")
            cell.fault_detections += 1
            continue
        cell.runs += 1
        cell.steps_total += run.total_steps
        if watchdog is not None and any(
            alert.kind == "livelock" for alert in watchdog.alerts
        ):
            cell.watchdog_halts += 1
        if recoveries.restart_at:
            cell.recovery_runs += 1
        if run.outcome.degraded:
            cell.degraded_runs += 1
        problems = list(validate_run(run).problems)
        if extra_check is not None:
            problems.extend(extra_check(run))
        if faults is not None:
            # Faulty cell: detections are the *point*, not failures.
            cell.fault_runs += 1
            injected = (
                run.outcome.metrics.counter_total("faults.injected")
                if run.outcome.metrics
                else 0
            )
            cell.fault_injections += injected
            if problems or run.outcome.degraded:
                cell.fault_detections += 1
            continue
        if run.outcome.degraded:
            problems.append(f"degraded: {run.outcome.failure_reason}")
        if problems:
            cell.failures.append(
                FuzzFailure(
                    protocol=run.protocol,
                    n=n,
                    scheduler=scheduler_name,
                    seed=seed,
                    inputs=tuple(inputs),
                    crashes=dict(crashes.crash_at),
                    problems=problems,
                    recoveries=dict(recoveries.restart_at),
                    degraded=run.outcome.degraded,
                )
            )
            if stop_on_first_failure:
                cell.stopped = True
                return cell
    return cell


def fuzz_consensus(
    protocol_factory: Callable[[], Any],
    n_values: Iterable[int] = (2, 3, 4),
    runs_per_cell: int = 10,
    schedulers: dict[str, Callable[[int], Any]] | None = None,
    crash_probability: float = 0.5,
    recovery_probability: float = 0.5,
    fault_probability: float = 0.0,
    fault_plan_factory: Callable[[Any], FaultPlan] | None = None,
    fault_max_steps: int = 300_000,
    expect_fault_detection: bool = False,
    max_steps: int = 100_000_000,
    master_seed: int = 0,
    extra_check: Callable[[ConsensusRun], list[str]] | None = None,
    stop_on_first_failure: bool = False,
    plan: RunPlan | None = None,
    experiment: str = "fuzz",
    livelock_window: int | None = DEFAULT_LIVELOCK_WINDOW,
    task_wrapper: Callable[
        [Callable[[tuple[int, str]], _CellOutcome]],
        Callable[[tuple[int, str]], _CellOutcome],
    ]
    | None = None,
) -> FuzzReport:
    """Run a randomized safety campaign; every run is validated.

    Args:
        protocol_factory: builds a fresh protocol per run.
        n_values: process counts to cover.
        runs_per_cell: runs per (n, scheduler) cell.
        schedulers: name → factory(seed); defaults to the four standard
            schedules (the split adversary is skipped for protocols whose
            memory layout it cannot read — it degrades to random there).
        crash_probability: fraction of runs that get a random crash plan.
        recovery_probability: fraction of *crashed* runs whose victims all
            restart (only for protocols with ``supports_recovery``) — the
            validators then require the restarted processes to decide too.
        fault_probability: fraction of runs that get a random register
            fault plan.  Faulty runs are judged differently: validation
            problems and degraded outcomes count as *detections* rather
            than failures (the injected fault is supposed to break things),
            and they run under the tighter ``fault_max_steps`` budget with
            ``raise_on_budget=False`` since lost progress is expected.
        fault_plan_factory: ``rng -> FaultPlan`` override for fault runs
            (default: :meth:`FaultPlan.random` on the ``mem.`` registers).
        expect_fault_detection: append a synthetic failure when faults were
            injected but no run detected anything (a verification hole).
        extra_check: optional additional per-run validation returning
            problem strings (e.g. a memory-bound assertion).

    Budget-exhausted runs never raise: they come back as degraded outcomes
    and are reported as failures (with ``degraded=True``) on fault-free
    runs, so one livelocked schedule cannot abort a whole campaign.

    ``plan`` (a :class:`~repro.resilience.RunPlan`; default serial, no
    ledger) says how the grid cells run: with workers they run
    concurrently (one worker task per (n, scheduler) cell); every run's
    randomness derives from the cell identity, and cell outcomes merge in
    grid order, so the report — detection holes included — is identical
    to the serial campaign.  ``stop_on_first_failure`` needs the serial
    scan order to mean anything, so it forces the serial path.  The
    plan's ``progress(done, total)`` ticks as cells complete.

    With a ledger in the plan (and no ``stop_on_first_failure``), every
    grid cell is content-addressed by (master seed, cell config, code version):
    cells already in the ledger are cache hits — served from their record
    instead of recomputed — and fresh cells are appended parent-side in
    grid order after the merge, so the ledger bytes are identical at any
    worker count.  Campaigns with custom ``extra_check`` /
    ``fault_plan_factory`` callables should use a distinct ``experiment``
    label: the callables themselves cannot be fingerprinted.

    Resilience: ``livelock_window`` arms a per-run
    :class:`~repro.faults.watchdog.Watchdog` that halts a frozen
    simulation (degraded outcome, counted in ``watchdog_halts``) instead
    of letting it burn the whole step budget in a pool slot (``None``
    disables).  Under the plan's policy, a retry re-runs a crashed cell
    from its seed (bit-identical report), and continue-and-report turns
    lost cells into ``task_errors`` on the report instead of an
    exception.  With a ledger, completed cells checkpoint incrementally,
    so re-running an interrupted campaign recomputes only the missing
    cells (``cache_hits`` reports the rest).
    ``task_wrapper`` decorates the cell function before dispatch (chaos
    injection hooks like
    :class:`~repro.resilience.checkpoint.CrashOnce`).
    """
    schedulers = (
        dict(schedulers) if schedulers is not None else dict(DEFAULT_SCHEDULERS)
    )
    plan = plan or RunPlan()
    report = FuzzReport()
    specs = [(n, name) for n in n_values for name in schedulers]

    # A partial, not a closure: it pickles when its arguments do, as
    # serve jobs' do (they run on a spawned worker pool).
    run_cell: Callable[[tuple[int, str]], _CellOutcome] = functools.partial(
        _run_cell,
        protocol_factory=protocol_factory,
        schedulers=schedulers,
        runs_per_cell=runs_per_cell,
        crash_probability=crash_probability,
        recovery_probability=recovery_probability,
        fault_probability=fault_probability,
        fault_plan_factory=fault_plan_factory,
        fault_max_steps=fault_max_steps,
        max_steps=max_steps,
        master_seed=master_seed,
        extra_check=extra_check,
        stop_on_first_failure=stop_on_first_failure,
        livelock_window=livelock_window,
    )

    if task_wrapper is not None:
        run_cell = task_wrapper(run_cell)

    if stop_on_first_failure:
        cells = []
        for done, spec in enumerate(specs):
            cell = run_cell(spec)
            cells.append(cell)
            if plan.progress is not None:
                plan.progress(done + 1, len(specs))
            if cell.stopped:
                break
    else:
        cell_config = {
            # One throwaway instance names the protocol; parameter-level
            # identity beyond the name rides on the experiment label.
            "protocol": getattr(protocol_factory(), "name", "consensus"),
            "runs_per_cell": runs_per_cell,
            "crash_probability": crash_probability,
            "recovery_probability": recovery_probability,
            "fault_probability": fault_probability,
            "fault_max_steps": fault_max_steps,
            "max_steps": max_steps,
            "livelock_window": livelock_window,
            "has_extra_check": extra_check is not None,
            "has_fault_plan_factory": fault_plan_factory is not None,
        }
        configs = [
            {"experiment": experiment, "n": n, "scheduler": name, **cell_config}
            for n, name in specs
        ]
        values, partial, report.cache_hits = run_checkpointed(
            run_cell,
            specs,
            [(master_seed, config) for config in configs],
            plan,
            kind="fuzz",
            experiment=experiment,
            decode=lambda record: (
                _CellOutcome.from_payload(record.outcome)
                if record.kind == "fuzz"
                else None
            ),
            encode=_CellOutcome.to_payload,
        )
        if partial.errors and (
            plan.policy is None or plan.policy.mode != "continue"
        ):
            raise ParallelExecutionError(partial.errors)
        cells = [cell for cell in values if cell is not None]
        report.task_errors = [str(error) for error in partial.errors]

    for cell in cells:
        report.runs += cell.runs
        report.steps_total += cell.steps_total
        if cell.runs:
            report.by_scheduler[cell.scheduler] = (
                report.by_scheduler.get(cell.scheduler, 0) + cell.runs
            )
        report.recovery_runs += cell.recovery_runs
        report.degraded_runs += cell.degraded_runs
        report.fault_runs += cell.fault_runs
        report.fault_injections += cell.fault_injections
        report.fault_detections += cell.fault_detections
        report.watchdog_halts += cell.watchdog_halts
        report.failures.extend(cell.failures)
        if cell.stopped:
            return report
    if (
        expect_fault_detection
        and report.fault_injections > 0
        and report.fault_detections == 0
    ):
        report.failures.append(
            FuzzFailure(
                protocol="(campaign)",
                n=0,
                scheduler="*",
                seed=master_seed,
                inputs=(),
                crashes={},
                problems=[
                    f"{report.fault_injections} faults injected across "
                    f"{report.fault_runs} runs but nothing was detected"
                ],
                fault_plan="random",
            )
        )
    return report
