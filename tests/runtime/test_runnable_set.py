"""The step loop's cached runnable set.

``Simulation.step`` hands the scheduler a cached tuple of runnable pids and
rebuilds it only when a process changes state.  A spy scheduler checks, at
every step, that the cached view equals a fresh pid-ascending scan of the
process table, across every kind of state change: spawn, finish, crash,
restart (including the time-warp restart), and a program that raises.
"""

import pytest

from repro.registers import AtomicRegister
from repro.runtime import (
    CrashPlan,
    RecoveryPlan,
    RoundRobinScheduler,
    Scheduler,
    Simulation,
)
from repro.runtime.process import ProcessState


class SpyScheduler(Scheduler):
    """Round-robin that asserts every ``runnable`` it is handed is exact."""

    def __init__(self):
        self.inner = RoundRobinScheduler()
        self.seen: list[tuple[int, ...]] = []

    def reset(self):
        self.inner.reset()

    def choose(self, sim, runnable):
        expected = tuple(
            pid
            for pid, process in sorted(sim.processes.items())
            if process.state is ProcessState.RUNNABLE
        )
        assert isinstance(runnable, tuple)
        assert runnable == expected
        self.seen.append(runnable)
        return self.inner.choose(sim, runnable)


def _writer_factory(reg, writes):
    """Process ``pid`` writes ``writes[pid]`` times, then decides its pid."""

    def factory(pid):
        def body(ctx):
            for _ in range(writes[pid]):
                yield from reg.write(ctx, pid)
            return pid

        return body

    return factory


def test_finishing_processes_leave_the_runnable_set():
    spy = SpyScheduler()
    sim = Simulation(3, spy, seed=0)
    reg = AtomicRegister(sim, "r", 0)
    sim.spawn_all(_writer_factory(reg, {0: 1, 1: 4, 2: 2}))
    outcome = sim.run()
    assert outcome.decisions == {0: 0, 1: 1, 2: 2}
    assert spy.seen[0] == (0, 1, 2)
    assert (1, 2) in spy.seen and spy.seen[-1] == (1,)
    assert sim.runnable_pids() == []


def test_crash_and_restart_update_the_runnable_set():
    spy = SpyScheduler()
    sim = Simulation(
        3,
        spy,
        seed=0,
        crash_plan=CrashPlan({1: 2}),
        recovery_plan=RecoveryPlan({1: 5}),
    )
    reg = AtomicRegister(sim, "r", 0)
    sim.spawn_all(_writer_factory(reg, {0: 6, 1: 6, 2: 6}))
    outcome = sim.run()
    assert outcome.decisions == {0: 0, 1: 1, 2: 2}
    assert outcome.restarts == {1: 1}
    # Crashed at step 2, restarted at step 5.
    assert spy.seen[2:5] == [(0, 2)] * 3
    assert spy.seen[5] == (0, 1, 2)


def test_direct_crash_and_restart_calls_update_the_runnable_set():
    spy = SpyScheduler()
    sim = Simulation(2, spy, seed=0)
    reg = AtomicRegister(sim, "r", 0)
    sim.spawn_all(_writer_factory(reg, {0: 3, 1: 3}))
    sim.step()
    sim.crash(0)
    assert sim.runnable_pids() == [1]
    sim.step()
    sim.restart(0)
    assert sim.runnable_pids() == [0, 1]
    assert sim.run().decisions == {0: 0, 1: 1}


def test_warp_restart_when_every_live_process_is_done():
    """Pid 0 finishes while pids 1 and 2 are crashed with restarts far
    ahead: the step loop warps to them.  Pid 1's new incarnation finishes
    during its priming, so the warp keeps going and revives pid 2."""
    spy = SpyScheduler()
    sim = Simulation(
        3,
        spy,
        seed=0,
        crash_plan=CrashPlan({1: 0, 2: 0}),
        recovery_plan=RecoveryPlan({1: 1_000, 2: 2_000}),
    )
    reg = AtomicRegister(sim, "r", 0)

    def factory(pid):
        def body(ctx):
            if pid == 1 and ctx.incarnation:
                return "fast"
            for _ in range(2):
                yield from reg.write(ctx, pid)
            return pid

        return body

    sim.spawn_all(factory)
    outcome = sim.run()
    assert outcome.decisions == {0: 0, 1: "fast", 2: 2}
    assert outcome.restarts == {1: 1, 2: 1}
    assert spy.seen == [(0,), (0,), (2,), (2,)]


def test_failed_process_leaves_the_runnable_set():
    spy = SpyScheduler()
    sim = Simulation(2, spy, seed=0)
    reg = AtomicRegister(sim, "r", 0)

    def factory(pid):
        def body(ctx):
            yield from reg.write(ctx, pid)
            if pid == 0:
                raise RuntimeError("protocol bug")
            yield from reg.write(ctx, pid)
            return pid

        return body

    sim.spawn_all(factory)
    with pytest.raises(RuntimeError, match="protocol bug"):
        sim.run()
    assert sim.processes[0].state is ProcessState.FAILED
    assert sim.runnable_pids() == [1]
    # The survivor keeps running on the rebuilt set.
    assert sim.run().decisions == {1: 1}


def test_runnable_pids_is_a_copy():
    sim = Simulation(2, SpyScheduler(), seed=0)
    reg = AtomicRegister(sim, "r", 0)
    sim.spawn_all(_writer_factory(reg, {0: 2, 1: 2}))
    sim.runnable_pids().clear()
    assert sim.runnable_pids() == [0, 1]
    assert sim.run().decisions == {0: 0, 1: 1}
