"""Asynchronous shared-memory simulation runtime.

The paper's model (following Lamport's global-time model, [L86a], [B88]) is a
set of ``n`` completely asynchronous processes whose *atomic* operations on
shared memory interleave arbitrarily.  This package provides that model as a
deterministic, seed-replayable simulator:

- a *process* is a Python generator; every ``yield`` marks exactly one atomic
  shared-memory operation (see :mod:`repro.runtime.process`);
- a *scheduler* (possibly a strong adaptive adversary with full knowledge of
  memory and pending operations) picks which process performs the next atomic
  step (see :mod:`repro.runtime.scheduler`, :mod:`repro.runtime.adversary`);
- the :class:`~repro.runtime.simulation.Simulation` driver advances one step
  at a time, records a :class:`~repro.runtime.trace.Trace` of operation
  events, and collects per-process decisions.

Because every correctness and complexity claim in the paper is a statement
about interleavings of atomic register operations, this interleaving
simulator reproduces the paper's execution model exactly; true hardware
parallelism is not required.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.runtime.events": ("OpEvent", "OpIntent", "OpSpan"),
        "repro.runtime.process": ("ProcessContext", "ProcessState"),
        "repro.runtime.rng": ("derive_rng", "derive_seed"),
        "repro.runtime.scheduler": (
            "CrashPlan",
            "RandomScheduler",
            "RecoveryPlan",
            "RoundRobinScheduler",
            "Scheduler",
            "ScriptedScheduler",
            "TracingScheduler",
        ),
        "repro.runtime.adversary": (
            "Adversary",
            "ScanStarvingAdversary",
            "SplitAdversary",
            "WalkBalancingAdversary",
        ),
        "repro.runtime.simulation": (
            "Simulation",
            "SimulationOutcome",
            "StepBudgetExceeded",
        ),
        "repro.runtime.trace": ("Trace",),
    },
)

__all__ = [
    "Adversary",
    "CrashPlan",
    "OpEvent",
    "OpIntent",
    "OpSpan",
    "ProcessContext",
    "ProcessState",
    "RandomScheduler",
    "RecoveryPlan",
    "RoundRobinScheduler",
    "ScanStarvingAdversary",
    "Scheduler",
    "ScriptedScheduler",
    "Simulation",
    "SimulationOutcome",
    "SplitAdversary",
    "StepBudgetExceeded",
    "Trace",
    "TracingScheduler",
    "WalkBalancingAdversary",
    "derive_rng",
    "derive_seed",
]
