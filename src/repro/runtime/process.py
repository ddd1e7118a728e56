"""Processes as generators.

A *process program* is a callable ``program(ctx) -> Generator`` where ``ctx``
is the :class:`ProcessContext` handed to it by the simulation.  The generator
must yield an :class:`~repro.runtime.events.OpIntent` before every atomic
shared-memory operation; the operation takes effect when the scheduler next
resumes the process.  Shared objects built on the runtime (registers,
scannable memory) expose their operations as sub-generators, so process code
composes them with ``yield from``::

    def program(ctx):
        value = yield from reg.read(ctx)
        yield from reg.write(ctx, value + 1)
        return value  # the process's decision

Everything a process does between two yields happens atomically with the
single shared-memory access performed at the resume point — exactly the
interleaving granularity of the paper's model, where local computation is
free and only shared accesses are scheduled.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, TYPE_CHECKING

from repro.runtime.events import OpIntent
from repro.runtime.trace import NULL_SPAN

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.runtime.simulation import Simulation

ProcessProgram = Callable[["ProcessContext"], Generator[OpIntent, None, Any]]


class ProcessState(enum.Enum):
    """Lifecycle of a simulated process."""

    RUNNABLE = "runnable"
    FINISHED = "finished"
    CRASHED = "crashed"
    FAILED = "failed"  # raised an exception (a bug, surfaced by the driver)


@dataclass(slots=True)
class ProcessContext:
    """Per-process handle given to process programs.

    Attributes:
        pid: this process's identifier, ``0 <= pid < n``.
        n: total number of processes in the simulation.
        rng: this process's private random stream (local coin flips).
        simulation: back-reference used by shared objects to record events.
        recording: whether the simulation records events or spans; hot
            call-sites branch on this instead of paying two calls into a
            trace that keeps nothing (``if ctx.recording: ctx.record(...)``).
        incarnation: 0 for the original run of the program; ``k > 0`` for
            the ``k``-th restart after a crash (crash-recovery model).  A
            restarted incarnation gets a fresh ``local`` dict and a fresh
            rng stream — local state does not survive a crash.
    """

    pid: int
    n: int
    rng: random.Random
    simulation: "Simulation"
    local: dict[str, Any] = field(default_factory=dict)
    incarnation: int = 0
    recording: bool = True

    def record(self, kind: str, target: str, value: Any = None) -> None:
        """Record that this process just performed an atomic operation."""
        self.simulation.record_event(self.pid, kind, target, value)

    def begin_span(self, kind: str, target: str, argument: Any = None):
        """Open a high-level operation span (e.g. a scan) in the trace.

        The span's invocation instant is stamped lazily, at the span's
        first atomic operation: a process that has *queued* an operation
        but not yet executed any step of it has not invoked it in the
        global-time model.

        When neither events nor spans are recorded the shared
        :data:`~repro.runtime.trace.NULL_SPAN` is returned instead: no
        allocation, no id, no clock traffic.  (With event recording on, a
        real span is still created even if span recording is off, because
        its stamping consumes logical-clock ticks that recorded event step
        numbers depend on.)
        """
        if not self.recording:
            return NULL_SPAN
        span = self.simulation.trace.begin_span(
            self.pid, kind, target, argument, None
        )
        self.simulation.pending_invokes.setdefault(self.pid, []).append(span)
        return span

    def end_span(self, span, result: Any = None) -> None:
        """Close a high-level operation span with its result."""
        if span is NULL_SPAN:
            return
        self.simulation.trace.end_span(span, self.simulation.next_tick(), result)


class Process:
    """Wrapper around a process program's generator.

    The wrapper tracks the pending :class:`OpIntent` (the last yielded
    value), the lifecycle state, step counts, and the final decision returned
    by the program.  Slotted: one instance per process, but its ``state`` /
    ``pending`` attributes are read several times per simulation step.
    """

    __slots__ = (
        "pid",
        "ctx",
        "program",
        "state",
        "decision",
        "steps_taken",
        "restarts",
        "pending",
        "failure",
        "_generator",
    )

    def __init__(self, pid: int, ctx: ProcessContext, program: ProcessProgram):
        self.pid = pid
        self.ctx = ctx
        self.program = program
        self.state = ProcessState.RUNNABLE
        self.decision: Any = None
        self.steps_taken = 0
        self.restarts = 0
        self.pending: OpIntent | None = None
        self.failure: BaseException | None = None
        self._generator = program(ctx)
        self._prime()

    def _prime(self) -> None:
        """Run the program up to its first yield (local initialisation).

        A program that raises before its first yield is a wiring bug; the
        exception propagates out of ``spawn`` so it is never silent.
        """
        try:
            self.pending = next(self._generator)
        except StopIteration as stop:
            self._finish(stop.value)
        except Exception:
            self.state = ProcessState.FAILED
            self.pending = None
            raise

    def _finish(self, decision: Any) -> None:
        self.state = ProcessState.FINISHED
        self.decision = decision
        self.pending = None

    def _fail(self, exc: BaseException) -> None:
        self.state = ProcessState.FAILED
        self.failure = exc
        self.pending = None

    @property
    def runnable(self) -> bool:
        return self.state is ProcessState.RUNNABLE

    def crash(self) -> None:
        """Stop this process (it takes no further steps unless restarted)."""
        if self.state is ProcessState.RUNNABLE:
            self.state = ProcessState.CRASHED
            self._generator.close()
            self.pending = None

    def restart(self, ctx: ProcessContext) -> None:
        """Re-run the program after a crash (crash-recovery model).

        The new incarnation's context carries no local state — shared
        memory is the only thing that survives.  Programs that want to
        resume rather than start over must recover from their shared cell
        (``ctx.incarnation > 0`` tells them they are a restart).
        """
        if self.state is not ProcessState.CRASHED:
            raise RuntimeError(
                f"process {self.pid} is {self.state.value}, only crashed "
                "processes can restart"
            )
        self.ctx = ctx
        self.restarts += 1
        self.state = ProcessState.RUNNABLE
        self._generator = self.program(ctx)
        self._prime()

    def advance(self) -> None:
        """Perform the pending atomic operation and run to the next yield."""
        if not self.runnable:
            raise RuntimeError(f"process {self.pid} is {self.state.value}, cannot step")
        self.resume()

    def resume(self) -> None:
        """:meth:`advance` without the state check, for a caller that has
        already verified this process is RUNNABLE (the step loop checks
        the scheduler's choice itself)."""
        self.steps_taken += 1
        try:
            self.pending = self._generator.send(None)
        except StopIteration as stop:
            self._finish(stop.value)
        except Exception as exc:
            self._fail(exc)
