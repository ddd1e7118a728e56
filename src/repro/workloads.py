"""Shared workload builders: one definition of each campaign shape.

The CLI (:mod:`repro.cli`) and the simulation service
(:mod:`repro.serve`) must run *the same* workload for the same
parameters — the run ledger content-addresses every cell by (seed,
config, code version), so two entry points that disagree about a default
or an experiment label would fingerprint the same work differently and
never share cache hits.  This module is the single source of those
shapes:

- :data:`PROTOCOLS` — the protocol menu every entry point exposes;
- :func:`make_scheduler` — the named scheduler/adversary table;
- :class:`SweepCell` — the canonical sweep's picklable per-cell function;
- :func:`build_sweep` — the canonical protocol-vs-n sweep
  (``repro sweep`` and serve ``{"kind": "sweep"}`` jobs both call it, so
  a sweep submitted over HTTP writes ledger bytes identical to the same
  sweep run through the CLI);
- :func:`run_chaos` — the three chaos stages (mutation campaign +
  recovery fuzz + fault fuzz) under their experiment labels, run by
  ``repro chaos`` and serve ``{"kind": "chaos"}`` jobs alike.

Everything here is import-light so the serve dispatcher can load it in a
thread without dragging the argparse layer along.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Sequence

from repro.consensus import (
    AdsConsensus,
    AspnesHerlihyConsensus,
    AtomicCoinConsensus,
    BoundedLocalCoinConsensus,
    LocalCoinConsensus,
    validate_run,
)
from repro.consensus.ads import pref_reader
from repro.obs.metrics import MetricsRegistry
from repro.runtime import (
    RandomScheduler,
    RoundRobinScheduler,
    SplitAdversary,
)
from repro.runtime.adversary import LockstepAdversary

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.experiment import Sweep
    from repro.faults.campaign import CampaignReport
    from repro.resilience import RunPlan
    from repro.verify.fuzz import FuzzReport

#: The user-facing protocol menu (name → class), shared by every entry
#: point so "ads" means the same protocol everywhere.
PROTOCOLS = {
    "ads": AdsConsensus,
    "aspnes-herlihy": AspnesHerlihyConsensus,
    "local-coin": LocalCoinConsensus,
    "bounded-local-coin": BoundedLocalCoinConsensus,
    "atomic-coin": AtomicCoinConsensus,
}

#: The named schedulers/adversaries accepted by ``--scheduler`` flags and
#: serve job specs.
SCHEDULERS = ("random", "round-robin", "split", "lockstep")

#: Sweep metrics a run can be reduced to.
SWEEP_METRICS = ("steps", "rounds")

#: Default cell parameters of the canonical sweep — the CLI flag defaults,
#: :func:`build_sweep`'s and the serve spec defaults are all this dict, so
#: an empty HTTP spec and a bare ``repro sweep`` name identical cells.
SWEEP_DEFAULTS: dict[str, Any] = {
    "protocol": "ads",
    "n_values": [2, 3, 4],
    "reps": 10,
    "seed_base": 0,
    "scheduler": "random",
    "metric": "steps",
    "max_steps": 50_000_000,
}

#: Default parameters of ``repro chaos``: its flag defaults and the serve
#: chaos spec defaults are both this dict, like :data:`SWEEP_DEFAULTS`.
CHAOS_DEFAULTS: dict[str, Any] = {"seed": 0, "runs_per_cell": 25}

#: The process counts of the two ``repro chaos`` fuzz stages.
CHAOS_N_VALUES = (2, 3)


def make_scheduler(name: str, seed: int):
    """Instantiate a named scheduler/adversary for one seeded run."""
    if name == "random":
        return RandomScheduler(seed=seed)
    if name == "round-robin":
        return RoundRobinScheduler()
    if name == "split":
        return SplitAdversary(pref_reader, seed=seed)
    if name == "lockstep":
        return LockstepAdversary("mem", seed=seed)
    raise ValueError(f"unknown scheduler: {name}")


def sweep_experiment(protocol: str, metric: str) -> str:
    """The ledger experiment label of a canonical sweep."""
    return f"sweep:{protocol}:{metric}"


class SweepCell:
    """The per-cell function of the canonical sweep: ``(n, seed) → value``.

    Each cell builds its own protocol instance and scheduler from its own
    seed (no shared state), validates safety, and reduces the run to one
    number — total steps or max rounds.  An unsafe run raises: a sweep
    must never average over violations.  Cells run bare (metrics, and with
    them the memory audit, off; no event or span recording): a sweep
    records only the number, so nothing else would be read.  Instances
    pickle, so serve jobs can send them to a spawned worker pool.
    """

    def __init__(self, protocol: str, scheduler: str, metric: str, max_steps: int):
        self.protocol = protocol
        self.scheduler = scheduler
        self.metric = metric
        self.max_steps = max_steps

    def __call__(self, n: int, seed: int) -> float:
        instance = PROTOCOLS[self.protocol]()
        inputs = [(seed + i) % 2 for i in range(n)]
        run = instance.run(
            inputs,
            scheduler=make_scheduler(self.scheduler, seed),
            seed=seed,
            max_steps=self.max_steps,
            metrics=MetricsRegistry(enabled=False),
        )
        report = validate_run(run)
        if not report.ok:
            raise RuntimeError(
                f"unsafe run (n={n}, seed={seed}): " + "; ".join(report.problems)
            )
        return float(run.max_rounds() if self.metric == "rounds" else run.total_steps)


class _FusedSweepCell(SweepCell):
    """The canonical cell opted into the fused batch interpreter (see
    :mod:`repro.batch`): default ADS under the random scheduler is
    exactly the fast path, and the engine reproduces the serial RNG
    streams bit-for-bit.  The parallel engine runs these cells as fused
    lanes at every batch size (``--batch N`` only sets how many cells
    are dispatched per unit).  Any lane the engine cannot interpret
    (n < 2, odd counter states, an exhausted budget) re-runs through the
    cell itself, reproducing the serial result or exception unchanged."""

    def batch_lane(self, task: tuple[int, int]) -> Any:
        from repro.batch import LaneSpec

        n, seed = task
        if n < 2:
            return None
        return LaneSpec(
            inputs=tuple((seed + i) % 2 for i in range(n)),
            seed=seed,
            max_steps=self.max_steps,
        )

    def batch_value(self, task: tuple[int, int], lane: Any) -> float | None:
        n, seed = task
        decided = set(lane.decisions.values())
        # validate_run's four checks on a crash-free run: agreement,
        # validity/domain (decisions drawn from the inputs), and
        # completion (every process decided).  Any violation falls back
        # to the cell itself, which raises the serial "unsafe run" error
        # with the full report.
        if (
            len(decided) > 1
            or not decided <= set(lane.spec.inputs)
            or len(lane.decisions) != n
        ):
            return None
        return float(lane.max_rounds() if self.metric == "rounds" else lane.total_steps)


def make_sweep_runner(
    protocol: str, scheduler: str, metric: str, max_steps: int
) -> SweepCell:
    """The per-cell function of the canonical sweep (see :class:`SweepCell`),
    carrying the fused-lane hooks for ADS under the random scheduler."""
    fused = protocol == "ads" and scheduler == "random"
    cell = _FusedSweepCell if fused else SweepCell
    return cell(protocol, scheduler, metric, max_steps)


def build_sweep(
    protocol: str = SWEEP_DEFAULTS["protocol"],
    n_values: Sequence[int] = tuple(SWEEP_DEFAULTS["n_values"]),
    reps: int = SWEEP_DEFAULTS["reps"],
    seed_base: int = SWEEP_DEFAULTS["seed_base"],
    scheduler: str = SWEEP_DEFAULTS["scheduler"],
    metric: str = SWEEP_DEFAULTS["metric"],
    max_steps: int = SWEEP_DEFAULTS["max_steps"],
) -> "Sweep":
    """The canonical protocol sweep, identically configured everywhere.

    Both ``repro sweep`` and serve sweep jobs execute the object this
    returns (each under its own :class:`~repro.resilience.RunPlan`), so
    the ledger records it checkpoints — experiment label, cell configs,
    fingerprints — are byte-identical across entry points.
    """
    from repro.analysis.experiment import Sweep

    return Sweep(
        "n",
        list(n_values),
        make_sweep_runner(protocol, scheduler, metric, max_steps),
        repetitions=reps,
        seed_base=seed_base,
        experiment=sweep_experiment(protocol, metric),
        config={
            "protocol": protocol,
            "scheduler": scheduler,
            "metric": metric,
            "max_steps": max_steps,
        },
    )


def run_chaos(
    seed: int, runs_per_cell: int, plan: "RunPlan", task_wrapper: Any = None
) -> tuple["CampaignReport", "FuzzReport", "FuzzReport"]:
    """The three ``repro chaos`` stages, identically configured everywhere.

    Runs the checker mutation campaign, a crash-recovery fuzz (every run
    crashes and every victim restarts) and a fault-injection fuzz (at a
    fifth of the runs, at least two) over n = 2, 3, and returns their
    three reports.  Each stage files its cells under its own ``chaos:*``
    experiment label, so a serve chaos job cache-hits the cells of a
    ``repro chaos`` run with the same seed and size, and the reverse.
    Only the recovery stage ticks ``plan.progress``.  ``task_wrapper``
    decorates every stage's cell function (see
    :class:`~repro.resilience.checkpoint.CrashOnce`).
    """
    from repro.faults.campaign import run_mutation_campaign
    from repro.verify.fuzz import fuzz_consensus

    quiet = dataclasses.replace(plan, progress=None)
    campaign = run_mutation_campaign(
        seed=seed,
        plan=quiet,
        experiment="chaos:campaign",
        task_wrapper=task_wrapper,
    )
    recovery = fuzz_consensus(
        AdsConsensus,
        n_values=CHAOS_N_VALUES,
        runs_per_cell=runs_per_cell,
        crash_probability=1.0,
        recovery_probability=1.0,
        master_seed=seed,
        plan=plan,
        experiment="chaos:recovery",
        task_wrapper=task_wrapper,
    )
    faults = fuzz_consensus(
        AdsConsensus,
        n_values=CHAOS_N_VALUES,
        runs_per_cell=max(2, runs_per_cell // 5),
        crash_probability=0.0,
        fault_probability=1.0,
        master_seed=seed,
        plan=quiet,
        experiment="chaos:faults",
        task_wrapper=task_wrapper,
    )
    return campaign, recovery, faults
