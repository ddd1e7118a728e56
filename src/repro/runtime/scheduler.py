"""Schedulers.

A scheduler decides, at every global step, which runnable process performs
its pending atomic operation.  The paper's adversary is *strong* and
*adaptive*: it sees all of shared memory, all local states, and all pending
operations.  The simulator exposes exactly that information (through the
:class:`~repro.runtime.simulation.Simulation` object) to schedulers, so a
scheduler subclass can implement any adversary the model allows.

Wait-freedom is modelled by :class:`CrashPlan`: the adversary may stop up to
``n - 1`` processes forever, and the surviving processes must still decide.
:class:`RecoveryPlan` extends the fault model beyond the paper: a crashed
process may later restart with local state lost but shared memory intact.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.runtime.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.simulation import Simulation


class Scheduler(abc.ABC):
    """Chooses the next process to take an atomic step.

    Slotted (as are the built-in subclasses): ``choose`` runs once per
    simulation step, and per-instance ``__dict__`` lookups on it are
    measurable at that frequency.
    """

    __slots__ = ()

    @abc.abstractmethod
    def choose(self, sim: "Simulation", runnable: Sequence[int]) -> int:
        """Return the pid (from ``runnable``, never empty) to schedule next.

        ``runnable`` is the simulation's cached, pid-ascending tuple of
        RUNNABLE pids; it is replaced, never updated in place, when a
        process changes state.
        """

    def reset(self) -> None:
        """Forget any per-run state (called when a simulation starts)."""


class RoundRobinScheduler(Scheduler):
    """Fair scheduler: cycles through runnable processes in pid order.

    This is the *weakest* adversary; it is useful as a sanity baseline and
    for measuring best-case behaviour.
    """

    __slots__ = ("_last",)

    def __init__(self) -> None:
        self._last = -1

    def reset(self) -> None:
        self._last = -1

    def choose(self, sim: "Simulation", runnable: Sequence[int]) -> int:
        for pid in runnable:
            if pid > self._last:
                self._last = pid
                return pid
        self._last = runnable[0]
        return runnable[0]


class RandomScheduler(Scheduler):
    """Oblivious adversary: schedules a uniformly random runnable process.

    Optionally biased: ``weights[pid]`` multiplies a process's chance of
    being scheduled, which is a cheap way to model heterogeneous speeds.
    """

    __slots__ = ("seed", "weights", "_rng", "_getrandbits")

    def __init__(self, seed: int = 0, weights: dict[int, float] | None = None):
        self.seed = seed
        self.weights = dict(weights) if weights else None
        self._rng = derive_rng(seed, "random-scheduler")
        self._getrandbits = self._rng.getrandbits

    def reset(self) -> None:
        self._rng = derive_rng(self.seed, "random-scheduler")
        self._getrandbits = self._rng.getrandbits

    def choose(self, sim: "Simulation", runnable: Sequence[int]) -> int:
        if self.weights is None:
            # Inlined ``Random.choice`` (= ``seq[_randbelow(len(seq))]``
            # with the getrandbits rejection loop), drawing the exact same
            # bits in the same order so every seeded schedule — and every
            # checked-in baseline built on one — replays unchanged.  Saves
            # two method dispatches per simulation step.  ``repro.batch``
            # decodes these same draws from block-drawn words, so a change
            # here must change its grant decoder too (tests/batch/test_rng.py).
            n = len(runnable)
            getrandbits = self._getrandbits
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            return runnable[r]
        weights = [self.weights.get(pid, 1.0) for pid in runnable]
        if not any(w > 0 for w in weights):
            # Every runnable process is weighted 0 (e.g. the non-zero ones
            # all finished): fall back to uniform rather than raising.
            return self._rng.choice(runnable)
        return self._rng.choices(runnable, weights=weights, k=1)[0]


class ScriptedScheduler(Scheduler):
    """Replays a fixed pid sequence; falls back to round-robin after.

    Scripted schedules are how tests reproduce the handcrafted adversarial
    interleavings from the literature (e.g. the stalled-reader scenario that
    defeats naive two-writer register readers).  Script entries naming
    non-runnable processes are skipped.
    """

    __slots__ = ("script", "_pos", "_fallback")

    def __init__(self, script: list[int]):
        self.script = list(script)
        self._pos = 0
        self._fallback = RoundRobinScheduler()

    def reset(self) -> None:
        self._pos = 0
        self._fallback.reset()

    def choose(self, sim: "Simulation", runnable: Sequence[int]) -> int:
        while self._pos < len(self.script):
            pid = self.script[self._pos]
            self._pos += 1
            if pid in runnable:
                return pid
        return self._fallback.choose(sim, runnable)


class TracingScheduler(Scheduler):
    """Wraps any scheduler and records what it *granted*.

    The causal layer (:mod:`repro.obs.causality`) attributes latency to
    the schedule; this wrapper records the schedule's shape from the
    scheduler's side — grants per pid, the longest consecutive streak each
    pid was given, and a bounded tail of the grant sequence — without
    changing a single choice (the inner scheduler sees the same calls in
    the same order, so a traced run replays identically).
    """

    __slots__ = (
        "inner",
        "history",
        "grants",
        "max_streak",
        "recent",
        "_streak_pid",
        "_streak_len",
    )

    def __init__(self, inner: Scheduler, history: int = 1024):
        if history < 0:
            raise ValueError(f"history must be >= 0, got {history}")
        self.inner = inner
        self.history = history
        self.grants: dict[int, int] = {}
        self.max_streak: dict[int, int] = {}
        self.recent: list[int] = []
        self._streak_pid: int | None = None
        self._streak_len = 0

    def reset(self) -> None:
        self.inner.reset()
        self.grants = {}
        self.max_streak = {}
        self.recent = []
        self._streak_pid = None
        self._streak_len = 0

    def choose(self, sim: "Simulation", runnable: Sequence[int]) -> int:
        pid = self.inner.choose(sim, runnable)
        self.grants[pid] = self.grants.get(pid, 0) + 1
        if pid == self._streak_pid:
            self._streak_len += 1
        else:
            self._streak_pid = pid
            self._streak_len = 1
        if self._streak_len > self.max_streak.get(pid, 0):
            self.max_streak[pid] = self._streak_len
        if self.history:
            self.recent.append(pid)
            if len(self.recent) > self.history:
                del self.recent[: len(self.recent) - self.history]
        return pid

    def to_rows(self) -> list[dict[str, int]]:
        """One row per pid: grants and longest streak (sorted by pid)."""
        return [
            {
                "pid": pid,
                "granted": self.grants[pid],
                "max_streak": self.max_streak.get(pid, 0),
            }
            for pid in sorted(self.grants)
        ]


@dataclass
class CrashPlan:
    """A schedule of permanent process failures.

    ``crash_at[pid] = step`` crashes ``pid`` just before global step ``step``
    (so a step value of 0 means the process never takes a step at all).
    Wait-free algorithms must cope with any plan that leaves at least one
    process alive.
    """

    crash_at: dict[int, int] = field(default_factory=dict)

    @classmethod
    def random(
        cls,
        n: int,
        rng: random.Random,
        max_crashes: int | None = None,
        horizon: int = 2000,
    ) -> "CrashPlan":
        """A random plan crashing up to ``n - 1`` processes within ``horizon``."""
        limit = n - 1 if max_crashes is None else min(max_crashes, n - 1)
        count = rng.randint(0, limit)
        victims = rng.sample(range(n), count)
        return cls({pid: rng.randint(0, horizon) for pid in victims})

    def due(self, step: int) -> list[int]:
        """Pids whose crash step has arrived at global step ``step``.

        Pure query over the plan; the simulation itself consumes the plan
        through a sorted fire-once schedule, so an entry is never rescanned
        (or re-applied to a restarted process) after it has fired.
        """
        return [pid for pid, at in self.crash_at.items() if at <= step]

    def schedule(self) -> list[tuple[int, int]]:
        """The plan as a ``(pid, step)`` list sorted by firing order."""
        return sorted(self.crash_at.items(), key=lambda item: (item[1], item[0]))


@dataclass
class RecoveryPlan:
    """A schedule of crash *recoveries* (the crash-recovery fault model).

    ``restart_at[pid] = step`` restarts ``pid`` at global step ``step`` if it
    is crashed by then: the process's program is re-run from the top with
    all local state (including its private coin stream) lost, while every
    shared register — in particular its scannable-memory cell — keeps its
    value.  A restart entry for a process that is not crashed when its step
    arrives is dropped; each entry fires at most once.

    This weakens the paper's crash = halt-forever model in the direction of
    real systems.  Safety of the paper's protocol survives it because a
    recovered process resumes from its own (still intact) cell and is then
    indistinguishable from a merely slow process; wait-freedom bounds do
    not transfer, since a process can lose arbitrary local progress (see
    ``docs/robustness.md``).
    """

    restart_at: dict[int, int] = field(default_factory=dict)

    @classmethod
    def random(
        cls,
        crash_plan: CrashPlan,
        rng: random.Random,
        probability: float = 0.5,
        max_delay: int = 1000,
    ) -> "RecoveryPlan":
        """Restart each crashed pid with ``probability``, some steps later."""
        return cls(
            {
                pid: at + rng.randint(1, max_delay)
                for pid, at in crash_plan.crash_at.items()
                if rng.random() < probability
            }
        )

    def schedule(self) -> list[tuple[int, int]]:
        """The plan as a ``(pid, step)`` list sorted by firing order."""
        return sorted(self.restart_at.items(), key=lambda item: (item[1], item[0]))
