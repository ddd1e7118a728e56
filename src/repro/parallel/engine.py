"""The process-pool execution engine behind every ``--workers`` flag.

Every replicated workload in this repository — benchmark sweeps, the fuzz
grid, the mutation campaign, serve jobs — is an embarrassingly parallel
loop over independent *(params, seed)* simulation tasks: each task builds
its own :class:`~repro.runtime.simulation.Simulation` with its own derived
rng streams and never touches shared state.  :func:`run_tasks` fans such
tasks out across worker processes and reassembles the results **in
submission order**, so the merged output is bit-identical to the serial
loop for any worker count:

- per-task randomness is derived from the task itself (seed in, streams
  out), never from execution order or worker identity;
- results are keyed by task index during collection and reassembled into
  submission order before returning (order-insensitive merge);
- ``workers <= 1`` runs a plain in-process loop.

Tasks are dispatched in *units* of consecutive tasks.  The unit size is
worked out, not set: ``batch_size`` tasks when a batch size is given
(argument, else ``REPRO_BATCH``); one task when the call needs per-task
isolation (any policy other than plain fail-fast, a deadline, or
admission control); otherwise ``ceil(len(tasks) / (4 * workers))`` tasks,
which amortises IPC while keeping the pool load-balanced.  A task
function carrying ``batch_lane``/``batch_value`` hooks runs each unit's
eligible tasks through the fused interpreter
(:func:`repro.batch.engine.run_lanes`) first and the rest through
itself, whatever the unit size: the batch size sets only the unit.

With ``workers >= 2`` one supervised pool runs the units.  Given an
integer it forks up to ``workers`` daemon processes that live for the
whole call: a worker gets its first unit as a fork argument (inherited
with the task function, so neither is pickled) and later units over its
pipe.  Given a :class:`WorkerPool` — the serve dispatcher keeps one for
the server's lifetime — the call takes its workers from the pool
instead: they were started with the ``spawn`` method, receive ``fn``
pickled once per call, then units over their pipes, and go back to the
pool when the call has nothing left for them.  Either way a worker
answers each unit with one message listing every task's result or
:class:`TaskError` — a task that raises fails alone.  A worker that dies
outright (SIGKILL, segfault, ``os._exit``) or outlives its unit's
wall-clock deadline is killed, never reused, and every task of its unit
is charged ``WorkerDied`` or ``TaskTimeout``.  When no unit is ready or
waiting out a retry backoff, an idle worker is released at once: a
forked one told to exit, a pool worker parked.  A single unit runs
in-process only when it needs no isolation.

Failures never hang and never raise mid-call.  :func:`run_tasks_partial`
runs under a :class:`~repro.resilience.policy.FailurePolicy`: a failed
unit is retried as a whole with seeded exponential backoff, an
:class:`~repro.resilience.budget.AdmissionController` can shed work under
budget pressure, and the caller receives a
:class:`~repro.resilience.policy.PartialResult`; :func:`run_tasks` raises
:class:`ParallelExecutionError` carrying every terminal failure instead.
Because every task re-runs from its own seed, a retried campaign's merged
output stays bit-identical to an undisturbed run.

A per-call pool uses the ``fork`` start method so the task function —
which may be a closure or lambda (protocol factories, scheduler tables) —
is inherited by the workers instead of pickled; on platforms without
``fork`` such a call degrades to the in-process loop rather than failing
(documented in ``docs/performance.md``).  A :class:`WorkerPool` spawns
its workers, because its owner is a multithreaded server that must not
fork, so its calls need a picklable ``fn``.  Task inputs and results
cross the process boundary either way and must be picklable.
"""

from __future__ import annotations

import functools
import heapq
import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.budget import AdmissionController
    from repro.resilience.policy import FailurePolicy, PartialResult

__all__ = [
    "ParallelExecutionError",
    "TaskError",
    "WorkerPool",
    "available_workers",
    "resolve_batch_size",
    "resolve_workers",
    "run_tasks",
    "run_tasks_partial",
]

#: Environment variable consulted when ``workers=None`` (the library default
#: everywhere) — lets a shell opt whole programs into parallelism without
#: threading a flag through every call-site.
WORKERS_ENV = "REPRO_WORKERS"

#: Environment variable consulted when ``batch_size=None`` — the batched
#: analogue of :data:`WORKERS_ENV`.
BATCH_ENV = "REPRO_BATCH"

#: A dispatched unit is a list of ``(index, task)`` pairs; its answer is
#: one ``(status, index, payload)`` outcome per task, where status ``"ok"``
#: carries the result and ``"err"`` a :class:`TaskError`.
_Unit = list[tuple[int, Any]]
_Outcome = tuple[str, int, Any]
_RunUnit = Callable[[_Unit], list[_Outcome]]


@dataclass(frozen=True)
class TaskError:
    """One failed task, with everything needed to diagnose and replay it."""

    index: int
    params: str
    seed: int | None
    worker_pid: int
    exc_type: str
    message: str
    traceback: str = ""

    def __str__(self) -> str:
        seed = f" seed={self.seed}" if self.seed is not None else ""
        return (
            f"task #{self.index} ({self.params}){seed} "
            f"[worker pid {self.worker_pid}]: {self.exc_type}: {self.message}"
        )


class ParallelExecutionError(RuntimeError):
    """Raised when one or more tasks failed; carries every :class:`TaskError`."""

    def __init__(self, errors: Sequence[TaskError]):
        self.errors = sorted(errors, key=lambda e: e.index)
        lines = [f"{len(self.errors)} of the submitted tasks failed:"]
        for error in self.errors[:10]:
            lines.append(f"  - {error}")
        if len(self.errors) > 10:
            lines.append(f"  ... and {len(self.errors) - 10} more")
        first = self.errors[0] if self.errors else None
        if first is not None and first.traceback:
            lines.append("first failure's worker traceback:")
            lines.append(first.traceback.rstrip())
        super().__init__("\n".join(lines))


def available_workers() -> int:
    """Number of CPUs this process may use (affinity-aware when possible)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(workers: int | None) -> int:
    """Normalise a ``workers`` argument to a concrete positive count.

    ``None`` reads :data:`WORKERS_ENV` (defaulting to 1, the serial path);
    ``0`` means "all available CPUs"; any other value is used as given.
    Rejects non-integer and negative inputs with an actionable message
    naming the source (argument vs environment variable).
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            workers = 1
        else:
            try:
                workers = int(raw)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV}={raw!r} is not an integer; set it to 0 "
                    "(use all CPUs) or a positive worker count"
                ) from None
            if workers < 0:
                raise ValueError(
                    f"{WORKERS_ENV}={raw!r} is negative; set it to 0 "
                    "(use all CPUs) or a positive worker count"
                )
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise TypeError(
            f"workers must be an integer (0 = all CPUs), got {workers!r}"
        )
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = all CPUs), got {workers}")
    if workers == 0:
        return available_workers()
    return workers


def resolve_batch_size(batch_size: int | None = None) -> int | None:
    """Validate a batch size, falling back to :data:`BATCH_ENV`.

    A batch size is the number of tasks per dispatched unit.  Unlike
    ``workers`` there is no "0 = auto" convention, so only positive
    integers make sense.  ``None`` (and an unset/empty environment
    variable) lets the engine work the unit size out; fused lanes run
    either way.
    """
    if batch_size is None:
        raw = os.environ.get(BATCH_ENV, "").strip()
        if not raw:
            return None
        try:
            value = int(raw)
        except ValueError:
            raise ValueError(
                f"{BATCH_ENV}={raw!r} is not an integer; set it to a "
                "positive task count per unit (unset it for the default)"
            ) from None
        if value < 1:
            raise ValueError(
                f"{BATCH_ENV}={raw!r} must be >= 1 (tasks per unit); "
                "unset it for the default"
            )
        return value
    if isinstance(batch_size, bool) or not isinstance(batch_size, int):
        raise TypeError(
            f"batch_size must be a positive integer or None, got {batch_size!r}"
        )
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    return batch_size


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _describe_task(task: Any) -> tuple[str, int | None]:
    """Best-effort (params, seed) extraction for error reports."""
    seed = getattr(task, "seed", None)
    if seed is None and isinstance(task, tuple):
        for item in reversed(task):
            if isinstance(item, int) and not isinstance(item, bool):
                seed = item
                break
    text = repr(task)
    if len(text) > 200:
        text = text[:197] + "..."
    return text, seed if isinstance(seed, int) else None


def _task_error(index: int, task: Any, exc: BaseException) -> TaskError:
    params, seed = _describe_task(task)
    return TaskError(
        index=index,
        params=params,
        seed=seed,
        worker_pid=os.getpid(),
        exc_type=type(exc).__name__,
        message=str(exc),
        traceback=traceback.format_exc(),
    )


def _unit_runner(fn: Callable[[Any], Any], catch: type[BaseException]) -> _RunUnit:
    """The function that runs one unit of ``(index, task)`` pairs.

    When ``fn`` carries ``batch_lane``/``batch_value`` hooks, the unit's
    eligible tasks run as lanes of one
    :func:`~repro.batch.engine.run_lanes` call first; a task whose hook
    returns ``None`` or whose lane falls back runs through ``fn``, which
    reproduces the serial result or exception exactly.  Exceptions of
    class ``catch`` become ``"err"`` outcomes of the task that raised.
    """
    lane_of = getattr(fn, "batch_lane", None)
    value_of = getattr(fn, "batch_value", None)
    if value_of is None:
        lane_of = None

    def run_unit(unit: _Unit) -> list[_Outcome]:
        values: dict[int, Any] = {}
        if lane_of is not None:
            from repro.batch import engine as batch_engine

            try:
                lanes = [
                    (index, task, spec)
                    for index, task in unit
                    if (spec := lane_of(task)) is not None
                ]
                if lanes:
                    results = batch_engine.run_lanes([lane[2] for lane in lanes])
                    for (index, task, _), lane in zip(lanes, results):
                        if lane.fallback is None:
                            value = value_of(task, lane)
                            if value is not None:
                                values[index] = value
            except catch as exc:
                return [
                    ("err", index, _task_error(index, task, exc))
                    for index, task in unit
                ]
        outcomes: list[_Outcome] = []
        for index, task in unit:
            if index in values:
                outcomes.append(("ok", index, values[index]))
                continue
            try:
                outcomes.append(("ok", index, fn(task)))
            except catch as exc:
                outcomes.append(("err", index, _task_error(index, task, exc)))
        return outcomes

    return run_unit


class _Collector:
    """Parent-side bookkeeping shared by the in-process loop and the pool:
    results, policy decisions, progress and the caller's hooks."""

    def __init__(
        self,
        total: int,
        policy: "FailurePolicy",
        progress: Callable[[int, int], None] | None,
        on_result: Callable[[int, Any], None] | None,
        admission: "AdmissionController | None",
    ):
        from repro.resilience.policy import PartialResult

        self.partial = PartialResult(results=[None] * total)
        self.policy = policy
        self.progress = progress
        self.on_result = on_result
        self.admission = admission
        self.done = 0

    def admit(self, index: int, task: Any) -> bool:
        """Ask admission control about one task; a refused task is shed."""
        if self.admission is None or self.admission.admit(task).admitted:
            return True
        self.partial.shed += 1
        self.partial.shed_indices.append(index)
        self._advance(1)
        return False

    def settle(
        self, outcomes: list[_Outcome], attempt: int, timed_out: bool = False
    ) -> tuple[int, ...]:
        """Record one unit attempt's outcomes.

        Returns the indices of the failed tasks when the policy retries
        them (as one unit, at ``attempt + 1``), else ``()`` — their errors
        are then terminal.
        """
        errors = []
        for status, index, payload in outcomes:
            if status == "ok":
                self.partial.results[index] = payload
                if self.on_result is not None:
                    self.on_result(index, payload)
                if self.admission is not None:
                    self.admission.charge(payload)
            else:
                errors.append(payload)
        if errors and self.policy.should_retry(attempt, timed_out):
            self.partial.retries += 1
            self._advance(len(outcomes) - len(errors))
            return tuple(error.index for error in errors)
        self.partial.errors.extend(errors)
        self._advance(len(outcomes))
        return ()

    def _advance(self, count: int) -> None:
        if count:
            self.done += count
            if self.progress is not None:
                self.progress(self.done, len(self.partial.results))


def _record_engine_metrics(
    metrics: Any, tasks: int, chunks: int, workers: int, failures: int
) -> None:
    """Record the engine's own dispatch shape into a metrics registry.

    Counts submissions, not wall-clock — they are deterministic for a
    fixed task list, so they are gate-safe (``workers`` lives in a gauge
    whose key the bench gate's timing filter already skips).
    """
    if metrics is None or not getattr(metrics, "enabled", False):
        return
    metrics.counter("parallel.tasks").inc(tasks)
    metrics.counter("parallel.chunks").inc(chunks)
    metrics.counter("parallel.task_failures").inc(failures)
    metrics.gauge("parallel.workers").set_max(workers)


def _record_resilience_metrics(metrics: Any, partial: "PartialResult") -> None:
    """Record policy decisions as counters — only when something happened,
    so undisturbed runs keep byte-identical metric snapshots."""
    if metrics is None or not getattr(metrics, "enabled", False):
        return
    for key, value in (
        ("resilience.retries", partial.retries),
        ("resilience.timeouts", partial.timeouts),
        ("resilience.shed", partial.shed),
    ):
        if value:
            metrics.counter(key).inc(value)


def _run_in_process(
    run_unit: _RunUnit,
    tasks: Sequence[Any],
    size: int,
    collector: _Collector,
) -> None:
    """The in-process loop: retries inline, deadlines not enforced.

    Wall-clock timeouts need a killable worker process, so ``task_timeout``
    is a no-op here (callers wanting enforcement use ``workers >= 2``).
    """
    policy = collector.policy
    for start in range(0, len(tasks), size):
        unit = tuple(
            index
            for index in range(start, min(start + size, len(tasks)))
            if collector.admit(index, tasks[index])
        )
        attempt = 1
        while unit:
            outcomes = run_unit([(index, tasks[index]) for index in unit])
            retry = collector.settle(outcomes, attempt)
            if retry:
                delay = policy.backoff.delay(retry[0], attempt)
                if delay > 0:
                    time.sleep(delay)
            unit, attempt = retry, attempt + 1


def _worker(
    conn: connection.Connection,
    run_unit: _RunUnit | None = None,
    unit: _Unit | None = None,
    parent_end: connection.Connection | None = None,
) -> None:
    """Worker process body: answer units until told to stop.

    A forked worker gets ``run_unit`` and its first unit as fork
    arguments.  A spawned :class:`WorkerPool` worker starts with neither:
    every call first sends it the pickled task function (``bytes``), which
    it acknowledges with ``None`` once loaded, then units.  ``None`` from the
    parent means exit.  A worker that dies outright sends nothing and the
    parent reads EOF instead.
    """
    if parent_end is not None:
        # Drop the inherited copy of the parent's end, so a vanished parent
        # reads as EOF here instead of leaving this worker blocked forever.
        parent_end.close()
    else:
        # A pool worker shares the server's terminal: Ctrl-C is the
        # server's to handle, and it stops its workers over their pipes.
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        if unit is None:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                return  # the parent is gone
            if message is None:
                return
            if isinstance(message, bytes):
                run_unit = _load_call(message)
                try:
                    conn.send(None)
                except OSError:
                    return
                continue
            unit = message
        assert run_unit is not None
        outcomes = run_unit(unit)
        try:
            conn.send(outcomes)
        except OSError:
            return  # the parent is gone
        except Exception as exc:  # noqa: BLE001 - e.g. an unpicklable result
            conn.send(
                [("err", index, _task_error(index, task, exc)) for index, task in unit]
            )
        unit = None


def _load_call(blob: bytes) -> _RunUnit:
    """A pool worker's unit runner for one call.  A task function that
    does not load in the worker fails every task with the load error."""
    try:
        fn = pickle.loads(blob)
    except Exception as exc:  # noqa: BLE001 - reported by every task instead
        fn = functools.partial(_unloadable, f"{type(exc).__name__}: {exc}")
    return _unit_runner(fn, BaseException)


def _unloadable(error: str, task: Any) -> Any:
    raise RuntimeError(f"the task function did not load in the worker: {error}")


def _send_exit(conn: connection.Connection) -> None:
    """Tell a worker to exit; a dead one cannot hear it, which is fine."""
    try:
        conn.send(None)
    except OSError:
        pass


def _reap(conn: connection.Connection, process: Any) -> None:
    """Kill a worker, wait for it and close its pipe."""
    process.kill()
    process.join()
    conn.close()


class _Forked:
    """The workers of one call with an integer ``workers``: forked with
    the unit runner and their first unit, told to exit when released."""

    #: A forked worker has its task function from the start.
    acknowledges = False

    def __init__(self, run_unit: _RunUnit):
        self._context = multiprocessing.get_context("fork")
        self._run_unit = run_unit
        self._retired: list[Any] = []

    def start(self, unit: _Unit) -> tuple[connection.Connection, Any]:
        parent_end, child_end = self._context.Pipe()
        process = self._context.Process(
            target=_worker,
            args=(child_end, self._run_unit, unit, parent_end),
            daemon=True,
        )
        process.start()
        # Close the parent's copy of the child end at once, so a dead
        # worker yields EOF and later forks don't inherit it.
        child_end.close()
        return parent_end, process

    def release(self, conn: connection.Connection, process: Any) -> None:
        _send_exit(conn)
        conn.close()
        self._retired.append(process)

    def discard(self, conn: connection.Connection, process: Any) -> None:
        _reap(conn, process)

    def close(self) -> None:
        for process in self._retired:
            process.join()


class WorkerPool:
    """Supervised worker processes that outlive a single engine call.

    Pass one as ``workers`` to :func:`run_tasks` or
    :func:`run_tasks_partial` and the call runs its units on these
    workers instead of forking its own.  Everything else — unit sizes,
    deadlines, retries, admission, failure charging — is the same
    supervisor loop.  Workers are daemon processes started with the
    ``spawn`` method (the owner may be multithreaded, where ``fork`` is
    unsafe), lazily, when a unit first needs one; between calls they wait
    idle on their pipes.  A call pickles its task function once and sends
    it to each worker it takes, so ``fn`` must pickle: if it does not, the
    call raises :class:`TypeError` before any task runs.

    A worker that died or was killed (a crash, a blown deadline) is never
    put back; the next unit that needs a worker gets a freshly spawned
    one, and an idle worker found dead when a call takes it is replaced
    without charging anyone.  One call at a time may use a pool;
    :meth:`close` may come from another thread and kills the workers of
    a call in flight, whose next worker request then raises
    ``RuntimeError``.  A worker whose owner vanished reads EOF on its
    pipe and exits.
    """

    #: Seconds :meth:`close` gives an idle worker to exit before killing it.
    STOP_TIMEOUT = 5.0

    def __init__(self, workers: int):
        self.size = resolve_workers(workers)
        self._context = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._idle: list[tuple[connection.Connection, Any]] = []
        self._live: set[Any] = set()
        self._closed = False

    def close(self) -> None:
        """Stop every worker and wait for it; the pool takes no more calls."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
            for conn, _ in idle:
                _send_exit(conn)
            deadline = time.monotonic() + self.STOP_TIMEOUT
            for conn, process in idle:
                process.join(max(0.0, deadline - time.monotonic()))
                _reap(conn, process)
                self._live.discard(process)
            # Workers lent to a call in flight: that call reads EOF on
            # their pipes, charges their units and closes the pipes.
            for process in self._live:
                process.kill()
                process.join()
            self._live = set()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _lease(self, fn: Callable[[Any], Any]) -> "_Lease":
        try:
            blob = pickle.dumps(fn)
        except Exception as exc:  # noqa: BLE001 - pickling raises many types
            raise TypeError(
                f"task function {fn!r} does not pickle, so it cannot run on "
                f"a WorkerPool: {type(exc).__name__}: {exc}"
            ) from exc
        return _Lease(self, blob)

    def _take(self) -> tuple[connection.Connection, Any]:
        """An idle live worker, else a freshly spawned one."""
        with self._lock:
            if self._closed:
                raise RuntimeError("the WorkerPool is closed")
            while self._idle:
                conn, process = self._idle.pop()
                if process.is_alive():
                    return conn, process
                self._live.discard(process)
                _reap(conn, process)
            parent_end, child_end = self._context.Pipe()
            process = self._context.Process(
                target=_worker, args=(child_end,), daemon=True
            )
            process.start()
            child_end.close()
            self._live.add(process)
            return parent_end, process

    def _park(self, conn: connection.Connection, process: Any) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append((conn, process))
                return
        _send_exit(conn)
        conn.close()

    def _discard(self, conn: connection.Connection, process: Any) -> None:
        with self._lock:
            self._live.discard(process)
            _reap(conn, process)


class _Lease:
    """One call's use of a :class:`WorkerPool`: each worker it takes is
    first sent the call's pickled task function."""

    #: A pool worker acknowledges loading the call's task function; its
    #: first unit's deadline starts then, so start-up is not charged.
    acknowledges = True

    def __init__(self, pool: WorkerPool, blob: bytes):
        self._pool = pool
        self._blob = blob

    def start(self, unit: _Unit) -> tuple[connection.Connection, Any]:
        while True:
            conn, process = self._pool._take()
            try:
                conn.send(self._blob)
                conn.send(unit)
            except OSError:
                # Died while idle, after the liveness check: replaced,
                # not charged.
                self._pool._discard(conn, process)
                continue
            return conn, process

    def release(self, conn: connection.Connection, process: Any) -> None:
        self._pool._park(conn, process)

    def discard(self, conn: connection.Connection, process: Any) -> None:
        self._pool._discard(conn, process)

    def close(self) -> None:
        pass


@dataclass
class _Slot:
    """One live pool worker and the unit it holds (``None`` when idle)."""

    process: Any
    unit: tuple[int, ...] | None
    attempt: int
    deadline: float | None
    #: Still loading the call's task function (no deadline yet).
    loading: bool = False


def _run_pool(
    workers: "_Forked | _Lease",
    tasks: Sequence[Any],
    size: int,
    count: int,
    task_timeout: float | None,
    collector: _Collector,
) -> int:
    """The supervised pool; returns the number of units dispatched.

    ``workers`` starts, releases and discards the worker processes.
    Deadlines are enforced parent-side: a worker still running its unit
    past ``task_timeout`` seconds is SIGKILLed (the pool-level analogue of
    the simulation watchdog's livelock halt).
    """
    admitted = [
        index for index, task in enumerate(tasks) if collector.admit(index, task)
    ]
    ready: deque[tuple[tuple[int, ...], int]] = deque(
        (tuple(admitted[start : start + size]), 1)
        for start in range(0, len(admitted), size)
    )
    delayed: list[tuple[float, tuple[int, ...], int]] = []  # heap by ready_at
    slots: dict[connection.Connection, _Slot] = {}
    dispatched = 0

    def deadline() -> float | None:
        return None if task_timeout is None else time.monotonic() + task_timeout

    def settle(outcomes: list[_Outcome], attempt: int, timed_out: bool) -> None:
        retry = collector.settle(outcomes, attempt, timed_out)
        if retry:
            delay = collector.policy.backoff.delay(retry[0], attempt)
            heapq.heappush(delayed, (time.monotonic() + delay, retry, attempt + 1))

    def lost(slot: _Slot, exc_type: str, message: str) -> list[_Outcome]:
        """Charge every task of a killed or dead worker's unit."""
        assert slot.unit is not None
        outcomes: list[_Outcome] = []
        for index in slot.unit:
            params, seed = _describe_task(tasks[index])
            error = TaskError(
                index=index,
                params=params,
                seed=seed,
                worker_pid=slot.process.pid or -1,
                exc_type=exc_type,
                message=message,
            )
            outcomes.append(("err", index, error))
        return outcomes

    def drop(conn: connection.Connection) -> None:
        workers.discard(conn, slots.pop(conn).process)

    def feed(conn: connection.Connection, slot: _Slot) -> None:
        """Hand an idle worker the next ready unit, or release it when
        nothing is ready or delayed; otherwise it waits for a retry."""
        nonlocal dispatched
        if ready:
            slot.unit, slot.attempt = ready.popleft()
            slot.deadline = deadline()
            dispatched += 1
            try:
                conn.send([(index, tasks[index]) for index in slot.unit])
            except OSError:
                pass  # a dead worker reads as EOF below
        elif not delayed:
            workers.release(conn, slots.pop(conn).process)

    try:
        while True:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, unit, attempt = heapq.heappop(delayed)
                ready.append((unit, attempt))
            for conn, slot in list(slots.items()):
                if slot.unit is None:
                    feed(conn, slot)
            while ready and len(slots) < count:
                unit, attempt = ready.popleft()
                conn, process = workers.start([(index, tasks[index]) for index in unit])
                if workers.acknowledges:
                    slots[conn] = _Slot(process, unit, attempt, None, loading=True)
                else:
                    slots[conn] = _Slot(process, unit, attempt, deadline())
                dispatched += 1
            busy = [conn for conn, slot in slots.items() if slot.unit is not None]
            if not busy:
                if not delayed:
                    break
                time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                continue
            wake = [
                slots[conn].deadline
                for conn in busy
                if slots[conn].deadline is not None
            ]
            if delayed:
                wake.append(delayed[0][0])
            timeout = max(0.0, min(wake) - time.monotonic()) if wake else None
            for conn in connection.wait(busy, timeout=timeout):
                slot = slots[conn]
                try:
                    outcomes = conn.recv()
                except (EOFError, OSError):
                    drop(conn)
                    outcomes = lost(
                        slot,
                        "WorkerDied",
                        "worker process exited without reporting "
                        f"(exitcode {slot.process.exitcode})",
                    )
                    settle(outcomes, slot.attempt, timed_out=False)
                    continue
                if slot.loading:  # the acknowledgement: the unit starts now
                    slot.loading, slot.deadline = False, deadline()
                    continue
                # Hand out the next unit before booking this one, so the
                # worker computes while the parent writes checkpoints.
                attempt, slot.unit = slot.attempt, None
                if ready:
                    feed(conn, slot)
                settle(outcomes, attempt, timed_out=False)
                if slot.unit is None:
                    feed(conn, slot)
            # Deadlines are enforced after draining completions, so a unit
            # that finished in time is never killed by a slow parent loop.
            now = time.monotonic()
            for conn, slot in list(slots.items()):
                if slot.unit is None or slot.deadline is None or slot.deadline > now:
                    continue
                drop(conn)
                collector.partial.timeouts += 1
                outcomes = lost(
                    slot,
                    "TaskTimeout",
                    f"task exceeded its {task_timeout:.3f}s deadline "
                    "and its worker was killed",
                )
                settle(outcomes, slot.attempt, timed_out=True)
    finally:
        for conn in list(slots):
            drop(conn)
        workers.close()
    return dispatched


def run_tasks_partial(
    fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    workers: "int | WorkerPool | None" = None,
    batch_size: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    metrics: Any = None,
    policy: "FailurePolicy | None" = None,
    task_timeout: float | None = None,
    on_result: Callable[[int, Any], None] | None = None,
    admission: "AdmissionController | None" = None,
) -> "PartialResult":
    """Run ``fn`` over every task under a failure policy; never raise.

    The resilient counterpart of :func:`run_tasks`: instead of raising on
    the first-class failure modes (task exception, dead worker, blown
    deadline, shed budget) it returns a
    :class:`~repro.resilience.policy.PartialResult` whose ``results`` list
    is in submission order with ``None`` holes for terminal failures and
    shed tasks, plus the full error and retry/timeout/shed accounting.

    Additional knobs over :func:`run_tasks`:

    Args:
        policy: the :class:`~repro.resilience.policy.FailurePolicy`
            (default fail-fast semantics: no retries; errors are still
            *collected* here rather than raised).  Retries re-dispatch the
            failed tasks of a unit as one unit.
        task_timeout: wall-clock deadline in seconds for each dispatched
            unit.  Enforced only by the pool (a hung in-process task
            cannot be killed); the worker is SIGKILLed and every task of
            its unit counts as a timeout, retried when
            ``policy.retry_timeouts`` allows.
        on_result: ``on_result(index, result)`` invoked in the *parent*
            for every successful result as it arrives (any order) —
            the hook incremental checkpointing hangs from.
        admission: optional
            :class:`~repro.resilience.budget.AdmissionController`; tasks
            it refuses are shed (recorded, never run) and completed
            results are charged against its budget.

    Determinism: retried tasks re-run from their original seed, so a
    campaign that *completes* (no terminal errors, nothing shed) merges
    bit-identically to an undisturbed run at any worker count.
    """
    from repro.resilience.policy import FailurePolicy

    tasks = list(tasks)
    if policy is None:
        policy = FailurePolicy.fail_fast()
    batch_size = resolve_batch_size(batch_size)
    if isinstance(workers, WorkerPool):
        lease: _Lease | None = workers._lease(fn)
        count = workers.size
    else:
        lease = None
        count = resolve_workers(workers)
    isolate = (
        policy.mode != "fail_fast"
        or task_timeout is not None
        or admission is not None
    )
    if batch_size is not None:
        size = batch_size
    elif isolate:
        size = 1
    else:
        size = max(1, -(-len(tasks) // (4 * count)))
    units = -(-len(tasks) // size)
    # A lone unit runs in-process only when it needs no isolation: a
    # deadline needs a killable worker, and a crash must not take the
    # caller down with it.
    pooled = (
        count > 1
        and (units > 1 or (units == 1 and isolate))
        and (lease is not None or _fork_available())
    )
    collector = _Collector(len(tasks), policy, progress, on_result, admission)
    run_unit = _unit_runner(fn, BaseException if pooled else Exception)
    if pooled:
        count = min(count, units)
        chunks = _run_pool(
            lease or _Forked(run_unit), tasks, size, count, task_timeout, collector
        )
    else:
        # In-process there is no dispatch to amortise: one task per unit
        # unless a batch size groups the lanes of one run_lanes call.
        _run_in_process(run_unit, tasks, batch_size or 1, collector)
        chunks, count = 1, 1
    partial = collector.partial
    _record_engine_metrics(
        metrics, len(tasks), chunks, count, len(partial.errors)
    )
    _record_resilience_metrics(metrics, partial)
    return partial


def run_tasks(
    fn: Callable[[Any], Any],
    tasks: Iterable[Any],
    workers: "int | WorkerPool | None" = None,
    batch_size: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    metrics: Any = None,
    policy: "FailurePolicy | None" = None,
    task_timeout: float | None = None,
    on_result: Callable[[int, Any], None] | None = None,
) -> list[Any]:
    """Run ``fn`` over every task, possibly across processes; keep order.

    Args:
        fn: the task function.  With an integer ``workers`` it may be any
            callable — closures included — because workers inherit it via
            ``fork`` rather than pickling; with a :class:`WorkerPool` it
            must pickle (else :class:`TypeError` before any task runs).
        tasks: the task inputs.  Each must be picklable, as must ``fn``'s
            return values.
        workers: process count; see :func:`resolve_workers`.  ``<= 1`` (the
            default) runs the plain loop in this process.  A
            :class:`WorkerPool` runs the call on its long-lived workers
            (its ``size`` is the count).
        batch_size: tasks per dispatched unit; see
            :func:`resolve_batch_size`.  ``None`` (and ``REPRO_BATCH``
            unset) works the unit size out: one task when the call needs
            isolation, else ``ceil(len(tasks) / (4 * workers))``.  Either
            way ``fn``'s ``batch_lane``/``batch_value`` hooks (if any)
            route each unit's eligible tasks through the fused
            interpreter.
        progress: ``progress(done, total)`` invoked in the *parent* as
            units complete (in-process: after every unit).
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`; the
            engine records its dispatch shape into it (``parallel.tasks``,
            ``parallel.chunks`` — units dispatched to the pool, 1 for an
            in-process run —, ``parallel.task_failures`` counters and a
            ``parallel.workers`` gauge), plus ``resilience.retries`` /
            ``resilience.timeouts`` counters when the policy fired.
        policy: optional :class:`~repro.resilience.policy.FailurePolicy`.
            ``fail_fast`` (default) and ``retry`` modes work here; a task
            that still fails after its retries raises as before.  The
            ``continue`` mode returns partial results and therefore only
            makes sense with :func:`run_tasks_partial` — passing it here
            is an error.
        task_timeout: per-unit wall-clock deadline in seconds (pool only);
            see :func:`run_tasks_partial`.
        on_result: parent-side ``on_result(index, result)`` success hook;
            see :func:`run_tasks_partial`.

    Returns:
        ``[fn(t) for t in tasks]`` — same values, same order, regardless of
        worker count, batch size, completion order, or how many retries
        happened.

    Raises:
        ParallelExecutionError: if any task terminally failed (raised,
            worker died, or deadline blown — after any permitted retries);
            carries one :class:`TaskError` per failure.
    """
    if policy is not None and policy.mode == "continue":
        raise ValueError(
            "FailurePolicy mode 'continue' returns partial results; "
            "call run_tasks_partial() instead of run_tasks()"
        )
    partial = run_tasks_partial(
        fn,
        tasks,
        workers=workers,
        batch_size=batch_size,
        progress=progress,
        metrics=metrics,
        policy=policy,
        task_timeout=task_timeout,
        on_result=on_result,
    )
    if partial.errors:
        raise ParallelExecutionError(partial.errors)
    return list(partial.results)
