"""Incremental campaign checkpointing and crash injection.

Before this layer, every ledger-recorded entry point appended its fresh
records only *after* the whole campaign returned — an interrupt at cell
199/200 lost all 199.  :class:`LedgerCheckpointer` turns the ledger into
a live checkpoint: completed cells are buffered as they arrive (any
completion order, any worker count) and flushed to the ledger strictly
in submission order, one write per settled engine unit, so

- the ledger's bytes are identical whether the campaign ran serially,
  on eight workers, or through three interrupt/resume cycles, and
- an interrupt always leaves a valid submission-order *prefix* on disk
  (plus at most one torn trailing line, which the ledger reader already
  tolerates) — the resumed run recomputes only the missing suffix and
  whatever cells the cache could not serve.

:class:`RunPlan` is how a campaign executes (workers, dispatch unit,
failure policy, deadline, metrics, progress, ledger), and
:func:`run_checkpointed` is the one piece of plumbing every campaign
entry point (sweeps, the fuzz grid, the mutation campaign) shares:
fingerprint each cell once, serve cached records, run the rest in one
engine call under the plan and checkpoint them through a
:class:`LedgerCheckpointer`.

:class:`CrashOnce` is the matching chaos tool: a task wrapper that
SIGKILLs its own worker process exactly once per marker file, used by
the crash-mid-campaign tests and ``repro chaos --inject-worker-crash``
to prove the retry path end to end.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.ledger import LedgerRecord, RunLedger
    from repro.parallel.engine import WorkerPool
    from repro.resilience.policy import FailurePolicy, PartialResult


class LedgerCheckpointer:
    """Flush completed campaign cells to a ledger in submission order.

    Feed it ``(position, record)`` pairs in whatever order the pool
    completes them; each :meth:`flush` appends to the ledger, in one
    write, the contiguous prefix of positions seen so far.  Positions
    served from cache (no fresh record to write) are marked with
    :meth:`skip` so they do not block the prefix.
    """

    def __init__(self, ledger: "RunLedger"):
        self._ledger = ledger
        self._pending: dict[int, "LedgerRecord"] = {}
        self._skipped: set[int] = set()
        self._next = 0
        self.flushed = 0

    def skip(self, position: int) -> None:
        """Mark ``position`` as cache-served: nothing to write for it."""
        self._skipped.add(position)

    def offer(self, position: int, record: "LedgerRecord") -> None:
        """Buffer a freshly computed cell's record until the next flush."""
        self._pending[position] = record

    def flush(self) -> None:
        """Append the records of the contiguous prefix ready so far."""
        ready = []
        while True:
            if self._next in self._skipped:
                self._skipped.discard(self._next)
                self._next += 1
                continue
            record = self._pending.pop(self._next, None)
            if record is None:
                break
            ready.append(record)
            self._next += 1
        if ready:
            self._ledger.append_all(ready)
            self.flushed += len(ready)

    def close(self) -> None:
        """Assert nothing completed is still buffered (a position hole
        from a terminally failed cell legitimately strands later cells —
        those stay buffered and are recomputed from cache on resume)."""
        self._pending.clear()
        self._skipped.clear()


@dataclass(frozen=True)
class RunPlan:
    """How a campaign executes, decided once by its caller.

    Every campaign entry point (:func:`~repro.analysis.experiment.
    repeat_runs`, :meth:`~repro.analysis.experiment.Sweep.execute`,
    :func:`~repro.verify.fuzz.fuzz_consensus`,
    :func:`~repro.faults.campaign.run_mutation_campaign`) takes one plan
    and hands it to :func:`run_checkpointed`, the only code that unpacks
    it into the engine.  The CLI builds a plan from its flags, the serve
    dispatcher keeps one for the server's lifetime, and library callers
    write ``RunPlan(workers=...)``; the default plan runs serially (or on
    ``REPRO_WORKERS``) with no ledger.

    Attributes:
        workers: process count or :class:`~repro.parallel.WorkerPool`;
            see :func:`~repro.parallel.resolve_workers`.
        batch_size: tasks per dispatched unit; see
            :func:`~repro.parallel.resolve_batch_size`.
        policy: the :class:`~repro.resilience.policy.FailurePolicy`
            (``None`` = fail fast).
        task_timeout: per-unit wall-clock deadline in seconds (pool only).
        metrics: registry the engine records its dispatch shape and
            resilience counters into.
        progress: ``progress(done, total)``, called in the parent as
            fresh tasks complete.
        ledger: the :class:`~repro.obs.ledger.RunLedger` that serves
            cached cells and checkpoints fresh ones (``None`` = no ledger).
    """

    workers: "int | WorkerPool | None" = None
    batch_size: int | None = None
    policy: "FailurePolicy | None" = None
    task_timeout: float | None = None
    metrics: Any = None
    progress: Callable[[int, int], None] | None = None
    ledger: "RunLedger | None" = None


def run_checkpointed(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    cells: Sequence[tuple[int, Mapping[str, Any]]],
    plan: RunPlan,
    *,
    kind: str,
    experiment: str,
    decode: Callable[["LedgerRecord"], Any],
    encode: Callable[[Any], Mapping[str, Any]],
) -> tuple[list[Any], "PartialResult", int]:
    """Run ``fn`` over ``tasks`` as ``plan`` says: one engine call.

    ``cells[i] = (seed, config)`` is task ``i``'s content address.  With
    a ledger in the plan, each cell is fingerprinted once; a cached
    record that ``decode`` turns into a value (not ``None``) serves its
    task, and each fresh result checkpoints as a ``kind`` record with
    ``encode(result)`` as its outcome, flushed in submission order once
    per settled engine unit.  The other tasks go to
    :func:`~repro.parallel.run_tasks_partial` with the plan's engine
    fields.

    Returns ``(values, partial, cache_hits)``: ``values`` in submission
    order with ``None`` holes for lost tasks, the engine's
    :class:`~repro.resilience.policy.PartialResult` over the fresh tasks,
    and the number of tasks served from the ledger.
    """
    from repro.parallel.engine import run_tasks_partial

    ledger = plan.ledger
    values: list[Any] = [None] * len(tasks)
    pending = list(range(len(tasks)))
    checkpoint = None
    if ledger is not None:
        from repro.obs.ledger import compute_fingerprint, make_record
        from repro.version import code_version

        code = code_version()
        pending = []
        fingerprints = []
        checkpointer = LedgerCheckpointer(ledger)
        for index, (seed, config) in enumerate(cells):
            fingerprint = compute_fingerprint(seed, config, code)
            record = ledger.cached(fingerprint)
            value = None if record is None else decode(record)
            if value is None:
                pending.append(index)
                fingerprints.append(fingerprint)
            else:
                values[index] = value
                checkpointer.skip(index)

        def checkpoint(results: list[tuple[int, Any]]) -> None:
            """One settled unit's results: one ledger write."""
            for position, value in results:
                index = pending[position]
                seed, config = cells[index]
                checkpointer.offer(
                    index,
                    make_record(
                        kind=kind,
                        experiment=experiment,
                        seed=seed,
                        config=config,
                        outcome=encode(value),
                        code=code,
                        fingerprint=fingerprints[position],
                    ),
                )
            checkpointer.flush()

    partial = run_tasks_partial(
        fn,
        [tasks[index] for index in pending],
        workers=plan.workers,
        batch_size=plan.batch_size,
        progress=plan.progress,
        metrics=plan.metrics,
        policy=plan.policy,
        task_timeout=plan.task_timeout,
        on_result=checkpoint,
    )
    for index, value in zip(pending, partial.results):
        values[index] = value
    if ledger is not None:
        checkpointer.close()
    return values, partial, len(tasks) - len(pending)


class CrashOnce:
    """Task wrapper that SIGKILLs its worker once, then behaves normally.

    The first invocation (across all workers — guarded by an exclusively
    created marker file) kills the current process before running the
    task, simulating an OOM-killed or segfaulted worker.  Every later
    invocation, including the retry of the murdered task, delegates to
    the wrapped function — so a campaign run under ``FailurePolicy.retry``
    completes with output bit-identical to an undisturbed run.

    Instances hold only a function and a path, so they survive the
    fork-based pool without pickling concerns.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        marker_path: str | os.PathLike[str],
        at_index: int | None = None,
    ):
        self._fn = fn
        self._marker = Path(marker_path)
        self._at_index = at_index

    def __call__(self, task: Any) -> Any:
        if self._should_crash(task):
            try:
                # O_EXCL makes exactly one worker win the race to die.
                fd = os.open(self._marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                pass
            else:
                os.close(fd)
                os.kill(os.getpid(), signal.SIGKILL)
        return self._fn(task)

    def _should_crash(self, task: Any) -> bool:
        if self._marker.exists():
            return False
        if self._at_index is None:
            return True
        index = getattr(task, "index", None)
        return index == self._at_index
