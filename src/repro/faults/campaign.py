"""Mutation testing of the trace checkers via fault injection.

A checker that never fires is indistinguishable from a checker that works.
This module turns the fault injectors on — one fault class at a time, on
deterministic scenarios — and asserts that the corresponding checker
*reports a violation*; matching control cells (faults off) assert that the
checkers stay clean.  A fault class no checker detects is a **hole** in the
verification net and fails the campaign.

Three layers are exercised:

- **register** — a writer/reader pair on one atomic register, judged by the
  Wing–Gong linearizability checker.  Every fault class is *guaranteed*
  detectable here: reads and writes strictly alternate in real time, so any
  stale, lost or corrupted value contradicts atomicity.
- **snapshot** — write/scan programs on an ``ArrowScannableMemory`` with
  faults on its ``V`` registers, judged by the P1–P3 ghost-wseq checkers.
  Stale reads and lost writes surface as P1 regularity violations; value
  corruption is only visible to the ghost checkers when the corruption hits
  the wseq field, so that cell is observational (``expected=False``).
- **consensus** — full ADS runs with faults on the scannable memory, judged
  by decision validation plus P1–P3 plus the degraded-outcome flag.  These
  cells are observational: the handshake scan *masks* many register faults
  by design (a stale collect just forces another round), and that masking
  is itself a result worth recording (see ``docs/robustness.md``).

The campaign is fully deterministic for a given seed, so it runs in CI
(the ``chaos-smoke`` job) and via ``repro chaos``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.consensus.ads import AdsConsensus
from repro.consensus.validation import validate_run
from repro.faults.plan import FAULT_KINDS, FaultPlan
from repro.parallel import ParallelExecutionError
from repro.registers.atomic import AtomicRegister
from repro.registers.linearizability import HistoryOp, check_register_history
from repro.resilience.checkpoint import run_checkpointed
from repro.runtime.scheduler import RoundRobinScheduler
from repro.runtime.simulation import Simulation
from repro.snapshot.arrows import ArrowScannableMemory
from repro.snapshot.properties import check_all_properties


@dataclass(frozen=True)
class CampaignCell:
    """One (fault class, layer) mutation-test cell."""

    fault: str  # a FAULT_KINDS entry, or "none" for a control cell
    layer: str  # "register" | "snapshot" | "consensus"
    checker: str
    detected: bool
    expected: bool  # detection is *required* (vs. merely observed)
    injections: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        """Control cells must stay clean; expected cells must detect;
        observational cells are informative either way."""
        if self.fault == "none":
            return not self.detected
        if self.expected:
            return self.detected
        return True


@dataclass
class CampaignReport:
    """Everything one mutation-test campaign produced."""

    seed: int
    cells: list[CampaignCell] = field(default_factory=list)
    #: Cells served from the ledger instead of recomputed (resume runs).
    #: Runtime accounting only — deliberately kept out of :meth:`to_json`
    #: so a resumed campaign's report is byte-identical to an undisturbed
    #: one.
    cache_hits: int = 0
    #: Cells lost to terminal task failures under a continue-and-report
    #: policy (stringified :class:`~repro.parallel.TaskError`\s).
    task_errors: list[str] = field(default_factory=list)

    def detections_by_kind(self) -> dict[str, int]:
        counts = {kind: 0 for kind in FAULT_KINDS}
        for cell in self.cells:
            if cell.fault in counts and cell.detected:
                counts[cell.fault] += 1
        return counts

    @property
    def holes(self) -> list[str]:
        """Fault classes *no* checker detected anywhere — verification gaps."""
        counts = self.detections_by_kind()
        return [kind for kind in FAULT_KINDS if counts[kind] == 0]

    @property
    def ok(self) -> bool:
        return (
            not self.holes
            and not self.task_errors
            and all(cell.ok for cell in self.cells)
        )

    def to_rows(self) -> list[dict]:
        return [
            {
                "fault": c.fault,
                "layer": c.layer,
                "checker": c.checker,
                "injections": c.injections,
                "detected": c.detected,
                "expected": c.expected,
                "ok": c.ok,
                "detail": c.detail,
            }
            for c in self.cells
        ]

    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "seed": self.seed,
            "ok": self.ok,
            "holes": self.holes,
            "detections_by_kind": self.detections_by_kind(),
            "cells": self.to_rows(),
        }
        if self.task_errors:
            # Present only when cells were terminally lost, so a disturbed-
            # but-complete campaign serialises byte-identically to an
            # undisturbed one.
            payload["task_errors"] = self.task_errors
        return json.dumps(payload, indent=indent, sort_keys=True)


# -- register layer ----------------------------------------------------------


def _register_cell(fault: str | None, seed: int) -> CampaignCell:
    """Writer writes 1,2,3; reader reads three times, strictly alternating.

    Every operation is a single atomic step, so the history's real-time
    order is total and each read must return exactly the latest write's
    value — any injected fault breaks linearizability.
    """
    plan = FaultPlan.single(fault, targets=("r",), seed=seed) if fault else None
    sim = Simulation(
        2,
        scheduler=RoundRobinScheduler(),
        seed=seed,
        record_events=True,
        faults=plan,
    )
    reg = AtomicRegister(sim, "r", initial=0, writers=[0])

    def factory(pid: int):
        if pid == 0:
            def writer(ctx):
                for v in (1, 2, 3):
                    yield from reg.write(ctx, v)
            return writer

        def reader(ctx):
            for _ in range(3):
                yield from reg.read(ctx)
        return reader

    sim.spawn_all(factory)
    sim.run(100)
    ops = [
        HistoryOp(
            op_id=idx,
            pid=e.pid,
            kind=e.kind,
            value=e.value,
            invoke=e.step,
            response=e.step,
        )
        for idx, e in enumerate(sim.trace.events)
        if e.target == "r" and e.kind in ("read", "write")
    ]
    witness = check_register_history(ops, initial=0)
    injections = sim.faults.injected if sim.faults is not None else 0
    return CampaignCell(
        fault=fault or "none",
        layer="register",
        checker="linearizability",
        detected=witness is None,
        expected=fault is not None,
        injections=injections,
        detail=f"{len(ops)} ops",
    )


# -- snapshot layer ----------------------------------------------------------


def _snapshot_cell(fault: str | None, seed: int) -> CampaignCell:
    """Two processes write/scan an arrow memory with faults on its V cells."""
    plan = (
        FaultPlan.single(fault, targets=("mem.V",), seed=seed) if fault else None
    )
    sim = Simulation(
        2,
        scheduler=RoundRobinScheduler(),
        seed=seed,
        record_events=True,
        record_spans=True,
        faults=plan,
    )
    mem = ArrowScannableMemory(sim, "mem", 2, initial=0, ghost=True)

    def factory(pid: int):
        def body(ctx):
            for round_no in (1, 2):
                yield from mem.write(ctx, (pid, round_no))
                yield from mem.scan(ctx)
        return body

    sim.spawn_all(factory)
    sim.run(10_000)
    violations = check_all_properties(sim.trace, "mem", 2)
    injections = sim.faults.injected if sim.faults is not None else 0
    # Corruption is only ghost-visible when it hits the wseq field of the
    # (value, toggle, wseq) cell, so that cell is observational.
    expected = fault in ("stale_read", "lost_write")
    return CampaignCell(
        fault=fault or "none",
        layer="snapshot",
        checker="P1-P3",
        detected=bool(violations),
        expected=expected,
        injections=injections,
        detail="; ".join(
            f"{v.property_name}: {v.description}" for v in violations[:2]
        ),
    )


# -- consensus layer ---------------------------------------------------------


def _consensus_cell(fault: str, seed: int, max_steps: int) -> CampaignCell:
    """A full ADS run with a low-rate fault on the scannable memory.

    Observational: the handshake scan masks most register faults (a stale
    or lost collect forces another round instead of a wrong view), so a
    clean outcome here is a *robustness* result, not a checker hole.
    Detection means any of: unsafe decisions, P1–P3 violation, degraded
    outcome (budget blown), or the protocol crashing on a corrupted cell.
    """
    plan = FaultPlan(
        seed=seed,
        **{f"{fault}_rate": 0.02},
        targets=("mem.V",),
        max_injections=8,
    )
    proto = AdsConsensus(ghost_wseqs=True)
    try:
        run = proto.run(
            [0, 1, 1],
            seed=seed,
            fault_plan=plan,
            record_spans=True,
            max_steps=max_steps,
            raise_on_budget=False,
            keep_simulation=True,
        )
    except Exception as exc:  # corrupted state can crash protocol logic
        return CampaignCell(
            fault=fault,
            layer="consensus",
            checker="validation+P1-P3",
            detected=True,
            expected=False,
            detail=f"protocol crashed: {type(exc).__name__}: {exc}",
        )
    report = validate_run(run)
    violations = check_all_properties(run.simulation.trace, "mem", run.n)
    injections = run.simulation.faults.injected
    detected = (not report.ok) or bool(violations) or run.outcome.degraded
    parts = []
    if not report.ok:
        parts.append("; ".join(report.problems))
    if violations:
        parts.append(f"{len(violations)} P1-P3 violations")
    if run.outcome.degraded:
        parts.append(f"degraded: {run.outcome.failure_reason}")
    if not parts:
        parts.append("masked by the handshake scan")
    return CampaignCell(
        fault=fault,
        layer="consensus",
        checker="validation+P1-P3",
        detected=detected,
        expected=False,
        injections=injections,
        detail=" | ".join(parts),
    )


def _campaign_cell(
    spec: tuple[str, str | None], seed: int, consensus_max_steps: int
) -> CampaignCell:
    """Dispatch one (layer, fault) cell; self-contained and picklable."""
    layer, fault = spec
    if layer == "register":
        return _register_cell(fault, seed)
    if layer == "snapshot":
        return _snapshot_cell(fault, seed)
    assert layer == "consensus" and fault is not None
    return _consensus_cell(fault, seed, consensus_max_steps)


def run_mutation_campaign(
    seed: int = 0,
    consensus_max_steps: int = 200_000,
    workers: int | None = None,
    ledger: "Any | None" = None,
    experiment: str = "campaign",
    policy: "Any | None" = None,
    task_timeout: float | None = None,
    metrics: Any = None,
    task_wrapper: Any = None,
    batch_size: int | None = None,
) -> CampaignReport:
    """Run every mutation-test cell; deterministic for a given seed.

    Each cell seeds its own simulation, so with ``workers`` > 1 the cells
    run concurrently and the report (cells in the canonical order) is
    identical to the serial campaign.

    With a ``ledger`` (a :class:`~repro.obs.ledger.RunLedger`), every
    cell is content-addressed by (seed, cell spec, code version): known
    cells are cache hits (served from their records, counted in
    ``report.cache_hits``), and fresh cells checkpoint to the ledger
    *incrementally* in canonical order as they complete — the ledger
    bytes stay identical at any worker count and an interrupted campaign
    resumes by recomputing only the missing cells.

    ``policy``/``task_timeout`` flow to
    :func:`~repro.parallel.run_tasks_partial` (retry a crashed cell from
    its seed; continue-and-report turns lost cells into
    ``report.task_errors``); ``task_wrapper`` decorates the cell function
    before dispatch (chaos injection hooks like
    :class:`~repro.resilience.checkpoint.CrashOnce`).
    """
    specs: list[tuple[str, str | None]] = [("register", None), ("snapshot", None)]
    for kind in FAULT_KINDS:
        specs.extend([("register", kind), ("snapshot", kind), ("consensus", kind)])
    report = CampaignReport(seed=seed)

    # A partial, not a closure: serve jobs send it to a spawned worker pool.
    run_spec: Callable[[tuple[str, str | None]], CampaignCell] = functools.partial(
        _campaign_cell, seed=seed, consensus_max_steps=consensus_max_steps
    )
    if task_wrapper is not None:
        run_spec = task_wrapper(run_spec)
    # Campaign cells build fault-injected simulations, so there is no
    # fused fast path: a batch size only sets the dispatch unit.
    configs = [
        {
            "experiment": experiment,
            "layer": layer,
            "fault": fault or "none",
            "consensus_max_steps": consensus_max_steps,
        }
        for layer, fault in specs
    ]
    values, partial, report.cache_hits = run_checkpointed(
        run_spec,
        specs,
        ledger,
        [(seed, config) for config in configs],
        kind="campaign",
        experiment=experiment,
        decode=lambda record: (
            CampaignCell(**record.outcome) if record.kind == "campaign" else None
        ),
        encode=dataclasses.asdict,
        workers=workers,
        policy=policy,
        task_timeout=task_timeout,
        metrics=metrics,
        batch_size=batch_size,
    )
    if partial.errors and (policy is None or policy.mode != "continue"):
        raise ParallelExecutionError(partial.errors)
    report.cells = [cell for cell in values if cell is not None]
    report.task_errors = [str(error) for error in partial.errors]
    return report
