"""Batched struct-of-arrays execution: many simulations per process.

:mod:`repro.batch.engine` is the fused step-loop interpreter (lanes of
independent seeded ADS runs, bit-identical to the serial runtime).  The
parallel engine runs it under every campaign entry point: each
dispatched unit sends the tasks whose function opts in
(``batch_lane``/``batch_value`` hooks) through :func:`run_lanes`,
whatever the batch size, which only sets how many tasks a unit holds.
The engine imports this package on the first such unit, so importing
the CLI does not load it.  See ``docs/performance.md`` ("Batched
execution").
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.batch.engine": ("LaneResult", "LaneSpec", "run_lanes"),
    },
)
