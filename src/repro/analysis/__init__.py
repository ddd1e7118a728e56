"""Experiment framework: seeded runs, sweeps, statistics and reporting.

Every benchmark (E1–E12) is expressed as a parameter sweep over seeded
simulation runs; this package provides the plumbing so the benchmarks stay
declarative: :mod:`repro.analysis.experiment` runs and aggregates,
:mod:`repro.analysis.stats` estimates (means, Wilson intervals, log-log
growth slopes), :mod:`repro.analysis.theory` supplies the paper-predicted
rows, and :mod:`repro.analysis.reporting` renders the paper-vs-measured
tables that EXPERIMENTS.md records.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.analysis.experiment": ("Sweep", "repeat_runs", "sweep_table"),
        "repro.analysis.reporting": ("format_table", "render_rows"),
        "repro.analysis.stats": (
            "growth_exponent",
            "mean_and_ci",
            "summarize",
            "wilson_interval",
        ),
    },
)

__all__ = [
    "Sweep",
    "format_table",
    "growth_exponent",
    "mean_and_ci",
    "render_rows",
    "repeat_runs",
    "summarize",
    "sweep_table",
    "wilson_interval",
]
