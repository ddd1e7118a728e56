"""Resilience layer for campaign-scale execution.

The paper's subject is computing that survives failure — wait-free
consensus where any ``n-1`` processes may crash — and this package makes
the *harness* tolerate the same fault classes it simulates.  A campaign
says how it executes with one :class:`RunPlan` (workers, dispatch unit,
failure policy, deadline, metrics, progress, ledger), which
:func:`run_checkpointed` alone unpacks into the engine.  Three
mechanisms, all composing with :func:`repro.parallel.run_tasks`:

- **failure policies** (:mod:`repro.resilience.policy`) — what happens
  when a campaign task raises, its worker dies, or it exceeds its
  wall-clock deadline: fail fast (the classic all-or-nothing), retry
  with seeded exponential backoff (deterministic: a retried task re-runs
  from its original seed, so the merged output is bit-identical to an
  undisturbed run), or continue-and-report (a structured
  :class:`~repro.resilience.policy.PartialResult` carrying the
  survivors, every :class:`~repro.parallel.TaskError`, and the retry /
  timeout / shed accounting);
- **budget-based admission control** (:mod:`repro.resilience.budget`) —
  per-campaign step / wall-clock / task budgets with priority classes
  and graceful shedding under load, extending the ``raise_on_budget=
  False`` degraded-outcome discipline from the simulation layer to the
  campaign layer;
- **checkpoint/resume** (:mod:`repro.resilience.checkpoint`) — completed
  campaign cells persist *incrementally* to the run ledger in submission
  order, so an interrupted campaign resumes by recomputing only the
  fingerprints the ledger does not already hold (``--resume``).

Policy decisions are observable: the engine records ``resilience.retries``,
``resilience.timeouts`` and ``resilience.shed`` counters into any metrics
registry handed to it, and the dashboard renders them as a "Resilience"
section (see ``docs/robustness.md``).
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.resilience.budget": (
            "AdmissionController",
            "AdmissionDecision",
            "CampaignBudget",
            "Priority",
        ),
        "repro.resilience.checkpoint": (
            "CrashOnce",
            "LedgerCheckpointer",
            "RunPlan",
            "run_checkpointed",
        ),
        "repro.resilience.policy": ("FailurePolicy", "PartialResult", "RetryBackoff"),
    },
)
