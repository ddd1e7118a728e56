"""The simulation driver.

A :class:`Simulation` owns ``n`` processes, a scheduler, an optional crash
plan and a trace.  Each call to :meth:`Simulation.step` lets the scheduler
pick one runnable process, which then performs exactly one atomic
shared-memory operation (plus any amount of local computation).  The run
ends when every process has finished or crashed, or when the step budget is
exhausted.

The simulation also keeps a registry of the shared objects created for it
(:meth:`register_shared`); adversaries use the registry to inspect memory,
and the memory-boundedness audit (experiment E6) uses it to measure the
largest value any register ever held.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.runtime.events import OpEvent
from repro.runtime.process import Process, ProcessContext, ProcessProgram, ProcessState
from repro.runtime.rng import derive_rng
from repro.runtime.scheduler import CrashPlan, RandomScheduler, RecoveryPlan, Scheduler
from repro.runtime.trace import Trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.faults.watchdog import Watchdog, WatchdogAlert
    from repro.obs.timeseries import SeriesSpec

#: How many trailing trace events a degraded outcome carries as evidence.
TRACE_EXCERPT_EVENTS = 64

_RUNNABLE = ProcessState.RUNNABLE
_FAILED = ProcessState.FAILED


class StepBudgetExceeded(Exception):
    """Raised when a run does not terminate within its step budget.

    The message carries the per-pid step counts and a metrics summary
    (scan retries, round advances, decisions) so a budget blowup is
    diagnosable without a rerun; pass ``raise_on_budget=False`` to
    :meth:`Simulation.run` to get a degraded :class:`SimulationOutcome`
    instead of the raise.
    """


@dataclass
class SimulationOutcome:
    """Result of :meth:`Simulation.run`.

    A *degraded* outcome means the run did not complete normally — the step
    budget ran out (with ``raise_on_budget=False``) or a watchdog halted it
    — and carries the diagnosis instead of raising: ``failure_reason`` (why
    it stopped), any watchdog ``alerts``, and a ``trace_excerpt`` of the
    last recorded events (empty unless event recording was on).
    """

    decisions: dict[int, Any]
    total_steps: int
    steps_by_pid: dict[int, int]
    finished: bool
    crashed: set[int] = field(default_factory=set)
    metrics: MetricsSnapshot | None = None
    restarts: dict[int, int] = field(default_factory=dict)
    degraded: bool = False
    failure_reason: str | None = None
    alerts: list["WatchdogAlert"] = field(default_factory=list)
    trace_excerpt: list[OpEvent] = field(default_factory=list)

    def decided_pids(self) -> list[int]:
        return sorted(self.decisions)


class Simulation:
    """Driver for one asynchronous shared-memory execution."""

    def __init__(
        self,
        n: int,
        scheduler: Scheduler | None = None,
        seed: int = 0,
        crash_plan: CrashPlan | None = None,
        recovery_plan: RecoveryPlan | None = None,
        record_events: bool = False,
        record_spans: bool = True,
        metrics: MetricsRegistry | None = None,
        faults: "FaultPlan | None" = None,
        series: "SeriesSpec | None" = None,
    ):
        if n < 1:
            raise ValueError("need at least one process")
        self.n = n
        self.seed = seed
        self.scheduler = scheduler if scheduler is not None else RandomScheduler(seed)
        self.scheduler.reset()
        self.crash_plan = crash_plan or CrashPlan()
        self.recovery_plan = recovery_plan or RecoveryPlan()
        # Crash/restart entries fire once, in step order: long runs pay an
        # O(1) amortized check per step, and a restarted process is not
        # immediately re-crashed by its already-fired crash entry.
        self._crash_schedule = self.crash_plan.schedule()
        self._crash_index = 0
        self._restart_schedule = self.recovery_plan.schedule()
        self._restart_index = 0
        self.trace = Trace(record_events=record_events, record_spans=record_spans)
        # Recording flag consulted on every atomic operation: when neither
        # events nor spans are kept, the per-op trace work (event object,
        # clock ticks, span stamping) is skipped wholesale.
        self._recording = record_events or record_spans
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.faults: "FaultInjector | None" = None
        if faults is not None:
            # Imported lazily: repro.faults builds on the runtime package,
            # so a top-level import here would be circular.
            from repro.faults.injector import FaultInjector

            self.faults = FaultInjector(faults, self.metrics)
        self.series_recorder = None
        if series is not None:
            # Imported lazily for the same reason as the fault injector:
            # repro.obs.timeseries sits above the metrics core.
            from repro.obs.timeseries import SeriesRecorder

            self.series_recorder = SeriesRecorder(self.metrics, series)
            self.metrics.bind_series(self.series_recorder)
        # Cached instrument handles: the step loop is the hottest path.
        self._steps_by_pid = [
            self.metrics.counter("runtime.steps", pid=pid) for pid in range(n)
        ]
        self._crash_counter = self.metrics.counter("runtime.crashes")
        self._restart_counter = self.metrics.counter("runtime.restarts")
        # True while any crash/restart entry has not fired yet; lets the
        # step loop skip the schedule scan entirely in fault-free runs.
        self._fault_entries_pending = bool(
            self._crash_schedule or self._restart_schedule
        )
        self.step_count = 0
        self._clock = 0
        self.processes: dict[int, Process] = {}
        # The pid-ascending RUNNABLE pids handed to the scheduler every
        # step.  A tuple, so a scheduler cannot mutate the cached view;
        # rebuilt only when a process changes state (spawn, crash,
        # restart, finish, fail), never per step.
        self._runnable: tuple[int, ...] = ()
        self.shared: dict[str, Any] = {}
        # Spans opened but not yet stamped with an invocation instant;
        # stamped at the owning process's next atomic operation.
        self.pending_invokes: dict[int, list] = {}

    # -- construction ------------------------------------------------------

    def context(self, pid: int, incarnation: int = 0) -> ProcessContext:
        """Create the :class:`ProcessContext` for process ``pid``.

        Each incarnation draws from its own rng stream (incarnation 0 keeps
        the historical tags, so existing seeds replay unchanged).
        """
        tags = ("process", pid) if incarnation == 0 else ("process", pid, incarnation)
        return ProcessContext(
            pid=pid,
            n=self.n,
            rng=derive_rng(self.seed, *tags),
            simulation=self,
            incarnation=incarnation,
            recording=self._recording,
        )

    def spawn(self, pid: int, program: ProcessProgram) -> None:
        """Create process ``pid`` running ``program`` (runs its local init)."""
        if pid in self.processes:
            raise ValueError(f"process {pid} already spawned")
        if not 0 <= pid < self.n:
            raise ValueError(f"pid {pid} out of range for n={self.n}")
        self.processes[pid] = Process(pid, self.context(pid), program)
        self._refresh_runnable()

    def spawn_all(self, program_factory: Callable[[int], ProcessProgram]) -> None:
        """Spawn processes ``0..n-1`` with per-pid programs."""
        for pid in range(self.n):
            self.spawn(pid, program_factory(pid))

    def register_shared(self, name: str, obj: Any) -> Any:
        """Register a shared object for adversary inspection / memory audit."""
        self.shared[name] = obj
        return obj

    # -- clocks and recording ----------------------------------------------

    def next_tick(self) -> int:
        """Monotone logical clock; each consultation is a distinct instant."""
        self._clock += 1
        return self._clock

    def record_event(self, pid: int, kind: str, target: str, value: Any) -> None:
        if not self._recording:
            # Nothing keeps events or spans: no ticks, no allocation.  The
            # logical clock is unobservable in this mode (nothing reads it),
            # so skipping it cannot change any output.
            return
        pending = self.pending_invokes.get(pid)
        if pending:
            # This atomic operation is the first step of every span the
            # process opened since its last operation: stamp them now,
            # just before the operation's own instant.
            for span in pending:
                span.invoke_step = self.next_tick()
            pending.clear()
        if self.trace.record_events:
            self.trace.events.append(
                OpEvent(self.next_tick(), pid, kind, target, value)
            )
        else:
            # Span recording is on: the event's instant must still consume
            # a tick so span invoke/response stamps keep their positions.
            self.next_tick()

    # -- execution ----------------------------------------------------------

    def runnable_pids(self) -> list[int]:
        return list(self._runnable)

    def _refresh_runnable(self) -> None:
        self._runnable = tuple(
            pid for pid, p in sorted(self.processes.items()) if p.state is _RUNNABLE
        )

    def crash(self, pid: int) -> None:
        self.processes[pid].crash()
        self._crash_counter.inc()
        self._refresh_runnable()

    def restart(self, pid: int) -> None:
        """Restart a crashed process (crash-recovery model).

        The new incarnation gets a fresh context — local state and private
        rng stream are lost; shared registers keep their values.  Spans the
        dead incarnation had opened but never stamped stay open (checkers
        skip open spans) and must not be stamped by the new incarnation's
        first operation.
        """
        process = self.processes[pid]
        incarnation = process.restarts + 1
        self.pending_invokes.pop(pid, None)
        process.restart(self.context(pid, incarnation=incarnation))
        self._restart_counter.inc()
        self._refresh_runnable()

    def _apply_fault_schedules(self) -> None:
        """Fire due crash and restart entries (each fires exactly once)."""
        step = self.step_count
        while (
            self._crash_index < len(self._crash_schedule)
            and self._crash_schedule[self._crash_index][1] <= step
        ):
            pid = self._crash_schedule[self._crash_index][0]
            self._crash_index += 1
            if self.processes[pid].runnable:
                self.crash(pid)
        while (
            self._restart_index < len(self._restart_schedule)
            and self._restart_schedule[self._restart_index][1] <= step
        ):
            pid = self._restart_schedule[self._restart_index][0]
            self._restart_index += 1
            if self.processes[pid].state is ProcessState.CRASHED:
                self.restart(pid)

    def step(self) -> int | None:
        """Advance one process by one atomic step; return its pid.

        Returns ``None`` when no process is runnable.  Raises the failing
        process's exception if its program raised (a protocol bug should
        never be silent).
        """
        if self._fault_entries_pending:
            self._apply_fault_schedules()
            self._fault_entries_pending = self._crash_index < len(
                self._crash_schedule
            ) or self._restart_index < len(self._restart_schedule)
        if not self._runnable:
            # Everyone alive is done/crashed but restarts may still be
            # scheduled.  Global time is measured in process steps, so it
            # cannot advance to reach them — warp to the next entries that
            # actually revive someone.
            while (
                not self._runnable
                and self._restart_index < len(self._restart_schedule)
            ):
                pid = self._restart_schedule[self._restart_index][0]
                self._restart_index += 1
                if self.processes[pid].state is ProcessState.CRASHED:
                    self.restart(pid)
            if not self._runnable:
                return None
        pid = self.scheduler.choose(self, self._runnable)
        process = self.processes.get(pid)
        if process is None or process.state is not _RUNNABLE:
            raise RuntimeError(f"scheduler chose non-runnable pid {pid}")
        process.resume()
        self.step_count += 1
        self._steps_by_pid[pid].inc()
        if self.series_recorder is not None:
            # Sampling is keyed to the step counter (the logical clock the
            # adversary drives), never wall time, so series stay
            # deterministic per seed.
            self.series_recorder.maybe_sample(self.step_count)
        if process.state is not _RUNNABLE:
            # The step finished or failed the process.
            self._refresh_runnable()
            if process.state is _FAILED:
                raise process.failure  # type: ignore[misc]
        return pid

    def run(
        self,
        max_steps: int = 1_000_000,
        raise_on_budget: bool = True,
        watchdog: "Watchdog | None" = None,
    ) -> SimulationOutcome:
        """Run until all processes finish/crash, or the budget runs out.

        With ``raise_on_budget=False`` a budget blowup produces a degraded
        :class:`SimulationOutcome` (``degraded=True``, populated
        ``failure_reason``) instead of raising.  An optional
        :class:`~repro.faults.watchdog.Watchdog` observes every step; its
        alerts are copied into the outcome, and alert kinds in its
        ``halt_on`` set stop the run early with a degraded outcome.
        """
        if watchdog is not None:
            watchdog.reset()
        halted: "WatchdogAlert | None" = None
        while self.step_count < max_steps:
            if self.step() is None:
                break
            if watchdog is not None:
                for alert in watchdog.observe(self):
                    if alert.kind in watchdog.halt_on:
                        halted = alert
                        break
                if halted is not None:
                    break
        else:
            if self.runnable_pids():
                reason = self._budget_diagnosis(max_steps)
                if raise_on_budget:
                    raise StepBudgetExceeded(reason)
                return self.outcome(
                    degraded=True, failure_reason=reason, watchdog=watchdog
                )
        if halted is not None:
            return self.outcome(
                degraded=True,
                failure_reason=f"watchdog halt — {halted}",
                watchdog=watchdog,
            )
        return self.outcome(watchdog=watchdog)

    def _budget_diagnosis(self, max_steps: int) -> str:
        """Readable diagnosis of a budget blowup (steps + progress metrics)."""
        per_pid = ", ".join(
            f"p{pid}={p.steps_taken}" for pid, p in sorted(self.processes.items())
        )
        decided = sorted(
            pid for pid, p in self.processes.items()
            if p.state is ProcessState.FINISHED
        )
        progress = (
            f"scan_retries={self.metrics.counter_total('snapshot.scan_retries')}, "
            f"round_advances={self.metrics.counter_total('consensus.round_advances')}, "
            f"coin_flips={self.metrics.counter_total('consensus.coin_flips')}"
            if self.metrics.enabled
            else "metrics disabled"
        )
        return (
            f"step budget exhausted: {self.step_count} steps taken "
            f"(budget {max_steps}), runnable={self.runnable_pids()}, "
            f"decided={decided}, steps_by_pid=[{per_pid}], {progress}"
        )

    def outcome(
        self,
        degraded: bool = False,
        failure_reason: str | None = None,
        watchdog: "Watchdog | None" = None,
    ) -> SimulationOutcome:
        if self.series_recorder is not None and self.step_count:
            # Final sample: the last point of every series reflects the
            # finished run even when the run length is not a multiple of
            # the sampling period (idempotent if it already sampled here).
            self.series_recorder.sample(self.step_count)
        decisions = {
            pid: p.decision
            for pid, p in self.processes.items()
            if p.state is ProcessState.FINISHED
        }
        crashed = {
            pid for pid, p in self.processes.items() if p.state is ProcessState.CRASHED
        }
        finished = all(
            p.state in (ProcessState.FINISHED, ProcessState.CRASHED)
            for p in self.processes.values()
        )
        alerts = list(watchdog.alerts) if watchdog is not None else []
        if degraded and alerts and failure_reason is not None:
            failure_reason += "; alerts: " + "; ".join(str(a) for a in alerts)
        return SimulationOutcome(
            decisions=decisions,
            total_steps=self.step_count,
            steps_by_pid={pid: p.steps_taken for pid, p in self.processes.items()},
            finished=finished,
            crashed=crashed,
            metrics=self.metrics.snapshot() if self.metrics.enabled else None,
            restarts={
                pid: p.restarts for pid, p in self.processes.items() if p.restarts
            },
            degraded=degraded,
            failure_reason=failure_reason,
            alerts=alerts,
            trace_excerpt=list(self.trace.events[-TRACE_EXCERPT_EVENTS:])
            if degraded
            else [],
        )
