"""Seeded experiment execution: repetitions and parameter sweeps.

Both entry points take a :class:`~repro.resilience.RunPlan` and fan
their replications out through :mod:`repro.parallel` as it says.  Each
replication derives all of its randomness from its own seed, so the
parallel path returns results bit-identical to the serial loop — same
seeds, same outputs, any worker count (see ``docs/performance.md``).

With a :class:`~repro.obs.ledger.RunLedger` in the plan, every
replication is content-addressed by (seed, cell config, code version),
replications whose fingerprint the ledger already holds are served from
it instead of recomputed (cache hits — disable with the ledger's
``use_cache=False``), and fresh results are appended *parent-side in
submission order* as they arrive, so the ledger bytes are identical at
any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Sequence

from repro.analysis.stats import Summary, summarize
from repro.parallel import ParallelExecutionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.ledger import LedgerRecord
    from repro.resilience import RunPlan


def _decode_value(record: "LedgerRecord") -> float | None:
    value = record.outcome.get("value")
    return float(value) if isinstance(value, (int, float)) else None


def _collect_samples(
    run_task: Callable[[Any], float],
    tasks: Sequence[Any],
    cells: "Sequence[tuple[int, Mapping[str, Any]]]",
    plan: "RunPlan | None",
    experiment: str,
) -> list[float]:
    """Run tasks in one engine call, through the plan's ledger if any.

    ``cells[i] = (seed, config)`` is task ``i``'s content address: cached
    cells are served from the ledger, fresh ones checkpoint incrementally
    in submission order as results arrive — an interrupted sweep leaves a
    valid ledger prefix behind, and the re-run recomputes only the
    missing fingerprints.  A terminally lost replication raises.
    """
    from repro.resilience.checkpoint import RunPlan, run_checkpointed

    values, partial, _ = run_checkpointed(
        run_task,
        tasks,
        cells,
        plan or RunPlan(),
        kind="sweep",
        experiment=experiment,
        decode=_decode_value,
        encode=lambda value: {"value": value},
    )
    if partial.errors:
        raise ParallelExecutionError(partial.errors)
    return [v for v in values if v is not None]


def repeat_runs(
    run_once: Callable[[int], float],
    seeds: Iterable[int],
    plan: "RunPlan | None" = None,
    *,
    experiment: str = "",
    config: Mapping[str, Any] | None = None,
) -> list[float]:
    """Execute ``run_once(seed)`` for every seed; collect the metric.

    ``plan`` says how (default: serial, or ``REPRO_WORKERS``, with no
    ledger): its workers share the seeds out, and results come back in
    seed order either way.  With a ledger in the plan, each seed's result
    is content-addressed by (seed, ``config`` + ``experiment`` label,
    code version): known fingerprints are cache hits (not recomputed),
    fresh ones checkpoint incrementally in seed order.  A replication
    that is terminally lost raises, whatever the plan's policy — silently
    dropping samples would skew the statistics.  When ``run_once``
    carries ``batch_lane``/``batch_value`` hooks (see :mod:`repro.batch`),
    seeds always run as fused lanes; results are bit-identical at any
    batch size.
    """
    seeds = list(seeds)
    base = {"experiment": experiment, **dict(config or {})}
    return _collect_samples(
        run_once, seeds, [(seed, base) for seed in seeds], plan, experiment
    )


class _CellTask:
    """``run_once(value, seed)`` as a task function over ``(value, seed)``
    tuples.  It pickles whenever ``run_once`` does (serve jobs send it to
    a spawned worker pool), and re-exposes ``run_once``'s fused-lane hooks
    so the engine can see them."""

    def __init__(self, run_once: Callable[[Any, int], float]):
        self.run_once = run_once
        for hook in ("batch_lane", "batch_value"):
            bound = getattr(run_once, hook, None)
            if bound is not None:
                setattr(self, hook, bound)

    def __call__(self, task: tuple[Any, int]) -> float:
        return self.run_once(task[0], task[1])


@dataclass
class SweepPoint:
    """One parameter setting with its replicated measurements."""

    params: dict[str, Any]
    samples: list[float]
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def summary(self) -> Summary:
        return summarize(self.samples)


@dataclass
class Sweep:
    """A one-dimensional parameter sweep with repetitions per point.

    The sweep holds only its cells; :meth:`execute` takes the
    :class:`~repro.resilience.RunPlan` that says how they run.

    Args:
        parameter: name of the swept parameter.
        values: the values it takes.
        run_once: ``run_once(value, seed) -> metric``.
        repetitions: seeds 0..repetitions-1 are used per point (offset by
            ``seed_base`` so different experiments never share streams).
        experiment, config: with a ledger in the plan, every (value,
            seed) cell is content-addressed under ``experiment`` +
            ``config`` + the swept parameter value, with cache hits
            served from the ledger and fresh cells recorded parent-side
            in submission order (byte-identical at any worker count).
    """

    parameter: str
    values: Sequence[Any]
    run_once: Callable[[Any, int], float]
    repetitions: int = 10
    seed_base: int = 0
    experiment: str = ""
    config: Mapping[str, Any] | None = None

    def execute(self, plan: "RunPlan | None" = None) -> list[SweepPoint]:
        """Run every (value, seed) cell in one engine call under ``plan``.

        The full cross product is submitted as one task list (better pool
        utilisation than per-point batches when repetitions are few), then
        regrouped by point in value order — output is identical to the
        serial nested loop for any worker count and batch size.  A
        terminally lost cell raises, whatever the plan's policy.
        """
        tasks = [
            (value, self.seed_base + rep)
            for value in self.values
            for rep in range(self.repetitions)
        ]
        base = {"experiment": self.experiment, **dict(self.config or {})}
        samples = _collect_samples(
            _CellTask(self.run_once),
            tasks,
            [(seed, {**base, self.parameter: value}) for value, seed in tasks],
            plan,
            self.experiment,
        )
        points = []
        for i, value in enumerate(self.values):
            chunk = samples[i * self.repetitions : (i + 1) * self.repetitions]
            points.append(SweepPoint({self.parameter: value}, list(chunk)))
        return points


def sweep_table(
    points: Sequence[SweepPoint],
    predicted: Callable[[Any], float] | None = None,
    parameter: str | None = None,
) -> list[dict[str, Any]]:
    """Rows of measured (and optionally predicted) values per sweep point."""
    rows = []
    for point in points:
        if parameter is None:
            parameter = next(iter(point.params))
        summary = point.summary
        row: dict[str, Any] = {
            parameter: point.params[parameter],
            "mean": summary.mean,
            "ci_low": summary.ci_low,
            "ci_high": summary.ci_high,
            "reps": summary.count,
        }
        if predicted is not None:
            row["predicted"] = predicted(point.params[parameter])
        row.update(point.extra)
        rows.append(row)
    return rows
