"""Incremental campaign checkpointing and crash injection.

Before this layer, every ledger-recorded entry point appended its fresh
records only *after* the whole campaign returned — an interrupt at cell
199/200 lost all 199.  :class:`LedgerCheckpointer` turns the ledger into
a live checkpoint: completed cells are buffered as they arrive (any
completion order, any worker count) and flushed to the ledger strictly
in submission order, so

- the ledger's bytes are identical whether the campaign ran serially,
  on eight workers, or through three interrupt/resume cycles, and
- an interrupt always leaves a valid submission-order *prefix* on disk
  (plus at most one torn trailing line, which the ledger reader already
  tolerates) — the resumed run recomputes only the missing suffix and
  whatever cells the cache could not serve.

:func:`run_checkpointed` is the one piece of ledger plumbing every
recorded entry point (sweeps, the fuzz grid, the mutation campaign)
shares: fingerprint each cell, serve cached records, run the rest in one
engine call and checkpoint them through a :class:`LedgerCheckpointer`.

:class:`CrashOnce` is the matching chaos tool: a task wrapper that
SIGKILLs its own worker process exactly once per marker file, used by
the crash-mid-campaign tests and ``repro chaos --inject-worker-crash``
to prove the retry path end to end.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.ledger import LedgerRecord, RunLedger
    from repro.resilience.policy import PartialResult


class LedgerCheckpointer:
    """Flush completed campaign cells to a ledger in submission order.

    Feed it ``(position, record)`` pairs in whatever order the pool
    completes them; it appends to the ledger only the contiguous prefix
    of positions seen so far.  Positions served from cache (no fresh
    record to write) are marked with :meth:`skip` so they do not block
    the prefix.
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
        self._flush()

    def offer(self, position: int, record: "LedgerRecord") -> None:
        """Buffer a freshly computed cell's record; flush what's ready."""
        self._pending[position] = record
        self._flush()

    def _flush(self) -> None:
        while True:
            if self._next in self._skipped:
                self._skipped.discard(self._next)
                self._next += 1
                continue
            record = self._pending.pop(self._next, None)
            if record is None:
                return
            self._ledger.append(record)
            self.flushed += 1
            self._next += 1

    def close(self) -> None:
        """Assert nothing completed is still buffered (a position hole
        from a terminally failed cell legitimately strands later cells —
        those stay buffered and are recomputed from cache on resume)."""
        self._pending.clear()
        self._skipped.clear()


def run_checkpointed(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    ledger: "RunLedger | None",
    cells: Sequence[tuple[int, Mapping[str, Any]]],
    *,
    kind: str,
    experiment: str,
    decode: Callable[["LedgerRecord"], Any],
    encode: Callable[[Any], Mapping[str, Any]],
    **engine: Any,
) -> tuple[list[Any], "PartialResult", int]:
    """Run ``fn`` over ``tasks`` through a ledger: one engine call.

    ``cells[i] = (seed, config)`` is task ``i``'s content address.  A
    cached record that ``decode`` turns into a value (not ``None``) serves
    its task; the other tasks go to
    :func:`~repro.parallel.run_tasks_partial` (``engine`` holds its
    keyword arguments), and each fresh result checkpoints as a ``kind``
    record with ``encode(result)`` as its outcome, flushed in submission
    order.  With ``ledger=None`` the tasks just run.

    Returns ``(values, partial, cache_hits)``: ``values`` in submission
    order with ``None`` holes for lost tasks, the engine's
    :class:`~repro.resilience.policy.PartialResult` over the fresh tasks,
    and the number of tasks served from the ledger.
    """
    from repro.parallel.engine import run_tasks_partial

    if ledger is None:
        partial = run_tasks_partial(fn, tasks, **engine)
        return list(partial.results), partial, 0
    from repro.obs.ledger import compute_fingerprint, make_record

    values: list[Any] = [None] * len(tasks)
    pending: list[int] = []
    checkpointer = LedgerCheckpointer(ledger)
    for index, (seed, config) in enumerate(cells):
        record = ledger.cached(compute_fingerprint(seed, config))
        value = None if record is None else decode(record)
        if value is None:
            pending.append(index)
        else:
            values[index] = value
            checkpointer.skip(index)

    def checkpoint(position: int, value: Any) -> None:
        index = pending[position]
        values[index] = value
        seed, config = cells[index]
        checkpointer.offer(
            index,
            make_record(
                kind=kind,
                experiment=experiment,
                seed=seed,
                config=config,
                outcome=encode(value),
            ),
        )

    partial = run_tasks_partial(
        fn, [tasks[index] for index in pending], on_result=checkpoint, **engine
    )
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
