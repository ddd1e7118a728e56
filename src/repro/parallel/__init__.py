"""Parallel execution of independent seeded simulation tasks.

See :mod:`repro.parallel.engine` for the execution model and determinism
guarantees, :mod:`repro.resilience` for the failure policies / budgets
that :func:`run_tasks_partial` executes under, and ``docs/performance.md``
/ ``docs/robustness.md`` for the user-facing tours.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.parallel.engine": (
            "ParallelExecutionError",
            "TaskError",
            "WorkerPool",
            "available_workers",
            "resolve_batch_size",
            "resolve_workers",
            "run_tasks",
            "run_tasks_partial",
        ),
    },
)
