"""Strong adaptive adversaries.

The adversary of the paper's model chooses the schedule *online* with full
knowledge of shared memory, all local states, and the operation each process
is about to perform.  (It cannot, however, see the outcome of a local coin
flip before the flip happens — but since a flip is local computation, the
flip's outcome is already reflected in the process's *pending* write, and the
adversary may observe that pending write.  This is exactly the power that
makes weak shared coins necessary.)

Concrete adversaries:

- :class:`WalkBalancingAdversary` — attacks the shared coin (§3): schedules
  the process whose pending operation moves the random walk closest to zero,
  maximising the time until a barrier is crossed and maximising the chance
  that two processes read opposite-side values.
- :class:`SplitAdversary` — attacks consensus: keeps the two preference
  camps advancing in lock-step so that neither value's supporters ever trail
  far enough for the other side to decide.
- :class:`ScanStarvingAdversary` — attacks the scannable memory's scan loop:
  runs one designated victim rarely, so its double-collects keep being
  invalidated by fresh writes (demonstrates that ``scan`` alone is not
  wait-free, §2.2).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, TYPE_CHECKING

from repro.runtime.rng import derive_rng
from repro.runtime.scheduler import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.simulation import Simulation


class Adversary(Scheduler):
    """Base class for adaptive adversaries (full-knowledge schedulers)."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = derive_rng(seed, type(self).__name__)

    def reset(self) -> None:
        self._rng = derive_rng(self.seed, type(self).__name__)

    @staticmethod
    def pending(sim: "Simulation", pid: int):
        """The operation ``pid`` will perform when next scheduled."""
        return sim.processes[pid].pending


class WalkBalancingAdversary(Adversary):
    """Keeps a shared random walk as close to zero as possible.

    Parameters:
        coin_name: key of the coin object in ``sim.shared``; the object must
            expose ``true_walk_value()`` and ``counter_of(pid)`` and its
            counter-write intents must carry the new counter value as
            payload with target ``f"{coin_name}.c[{pid}]"``.
    """

    def __init__(self, coin_name: str = "coin", seed: int = 0):
        super().__init__(seed)
        self.coin_name = coin_name

    def _delta(self, sim: "Simulation", pid: int) -> int:
        """Walk-value change if ``pid``'s pending operation executes now."""
        intent = self.pending(sim, pid)
        coin = sim.shared.get(self.coin_name)
        if intent is None or coin is None:
            return 0
        if intent.kind == "write" and intent.target == f"{self.coin_name}.c[{pid}]":
            return int(intent.payload) - coin.counter_of(pid)
        return 0

    def choose(self, sim: "Simulation", runnable: Sequence[int]) -> int:
        coin = sim.shared.get(self.coin_name)
        if coin is None:
            return self._rng.choice(runnable)
        walk = coin.true_walk_value()
        best = min(runnable, key=lambda pid: (abs(walk + self._delta(sim, pid)), pid))
        return best


class CoinDisagreementAdversary(Adversary):
    """Tries to *split* a shared coin: one victim sees heads, others tails.

    The classic hide-and-release attack that Lemma 3.1's 1/b bound is
    priced against:

    1. **pump-up** — starve the victim; among the rest, let +1 writes land
       and hold pending −1 writes, until the walk exceeds ``+b·n``;
    2. **victim-read** — run the victim alone; its collect sums past the
       barrier and it decides *heads*;
    3. **pump-down** — symmetric: release the hoarded −1s and hold +1s
       (completing intermediate reads is fine — they return undecided and
       yield more downward material) until the walk falls below ``−b·n``;
    4. **drain** — let everyone else read *tails*.

    The attack succeeds only when the walk cooperates with the filtering —
    the coin's whole point is that the success probability is bounded by
    ~1/b — so benchmarks report the *achieved* disagreement rate as a
    lower-bound companion to Lemma 3.1's upper bound.
    """

    def __init__(self, coin_name: str = "coin", victim: int = 0, seed: int = 0):
        super().__init__(seed)
        self.coin_name = coin_name
        self.victim = victim
        self._phase = "pump-up"

    def reset(self) -> None:
        super().reset()
        self._phase = "pump-up"

    def _delta(self, sim: "Simulation", pid: int):
        """+1/-1 if the pending op is a counter write, None otherwise."""
        intent = self.pending(sim, pid)
        coin = sim.shared.get(self.coin_name)
        if intent is None or coin is None:
            return None
        if intent.kind == "write" and intent.target == f"{self.coin_name}.c[{pid}]":
            return int(intent.payload) - coin.counter_of(pid)
        return None

    def _pick(self, sim, candidates: list[int], direction: int) -> int | None:
        """A candidate whose pending write moves the walk ``direction``-ward,
        else a candidate mid-read, else None (only wrong-way writes left)."""
        writers = [p for p in candidates if self._delta(sim, p) == direction]
        if writers:
            return writers[0]
        readers = [p for p in candidates if self._delta(sim, p) is None]
        if readers:
            return self._rng.choice(readers)
        return None

    def choose(self, sim: "Simulation", runnable: Sequence[int]) -> int:
        coin = sim.shared.get(self.coin_name)
        if coin is None:
            return self._rng.choice(runnable)
        walk = coin.true_walk_value()
        barrier = coin.b_barrier * coin.n
        others = [p for p in runnable if p != self.victim]

        if self._phase == "pump-up":
            if walk > barrier:
                self._phase = "victim-read"
            elif others:
                chosen = self._pick(sim, others, +1)
                return chosen if chosen is not None else self._rng.choice(others)

        if self._phase == "victim-read":
            if self.victim in runnable:
                return self.victim
            self._phase = "pump-down"

        if self._phase == "pump-down":
            if walk < -barrier or not others:
                self._phase = "drain"
            else:
                chosen = self._pick(sim, others, -1)
                return chosen if chosen is not None else self._rng.choice(others)

        return self._rng.choice(runnable)


class SplitAdversary(Adversary):
    """Alternates between the two preference camps of a consensus run.

    Parameters:
        pref_of: callable mapping ``(sim, pid)`` to the process's currently
            *written* preference (or ``None`` if undecided / not yet
            written).  Consensus modules provide suitable readers.
    """

    def __init__(self, pref_of: Callable[["Simulation", int], Any], seed: int = 0):
        super().__init__(seed)
        self.pref_of = pref_of
        self._turn = 0
        self._camp_rr: dict[Any, int] = {}

    def reset(self) -> None:
        super().reset()
        self._turn = 0
        self._camp_rr = {}

    def choose(self, sim: "Simulation", runnable: Sequence[int]) -> int:
        camps: dict[Any, list[int]] = {}
        for pid in runnable:
            camps.setdefault(self.pref_of(sim, pid), []).append(pid)
        values = [v for v in camps if v in (0, 1)]
        if len(values) < 2:
            return self._rng.choice(runnable)
        # Alternate camps; round-robin inside each camp so both camps make
        # balanced progress and neither trails far behind the other.
        value = sorted(values)[self._turn % 2]
        self._turn += 1
        members = sorted(camps[value])
        index = self._camp_rr.get(value, 0) % len(members)
        self._camp_rr[value] = index + 1
        return members[index]


class LockstepAdversary(Adversary):
    """Runs the protocol in synchronized *phases* (the classic worst case).

    In every phase, each alive process first runs up to (but not through)
    its next *cell write* — the write to its own slot of the shared memory
    ``memory_name`` — so all of them compute their next state from the
    *same* pre-phase memory; only then are all the pending cell writes
    released together.

    This is the textbook bad schedule for local-coin protocols: all g
    conflicted leaders re-draw their preferences in the same phase without
    seeing each other's draws, so leaving the round requires g independent
    coins to agree — probability ``2^{-(g-1)}``, the exponential regime of
    [A88].  Shared-coin protocols are immune (that is the paper's point),
    which makes this adversary the contrast class for experiments E5/E10.
    """

    _ADVANCE, _RELEASE = "advance", "release"

    def __init__(self, memory_name: str = "mem", seed: int = 0):
        super().__init__(seed)
        self.memory_name = memory_name
        self._phase = self._ADVANCE
        self._to_release: list[int] = []

    def reset(self) -> None:
        super().reset()
        self._phase = self._ADVANCE
        self._to_release = []

    def _at_cell_write(self, sim: "Simulation", pid: int) -> bool:
        intent = self.pending(sim, pid)
        return (
            intent is not None
            and intent.kind == "write"
            and intent.target == f"{self.memory_name}.V[{pid}]"
        )

    def choose(self, sim: "Simulation", runnable: Sequence[int]) -> int:
        if self._phase == self._RELEASE:
            self._to_release = [p for p in self._to_release if p in runnable]
            if self._to_release:
                return self._to_release.pop(0)
            self._phase = self._ADVANCE
        # Advance phase: run anyone not yet parked at its cell write.
        candidates = [p for p in runnable if not self._at_cell_write(sim, p)]
        if candidates:
            return self._rng.choice(candidates)
        # Everyone alive is parked: release all the writes back to back.
        self._phase = self._RELEASE
        self._to_release = sorted(runnable)
        return self._to_release.pop(0)


class ScanStarvingAdversary(Adversary):
    """Schedules ``victim`` only once every ``period`` steps.

    All other processes are scheduled uniformly at random in between, so the
    victim's ``scan`` keeps observing changed values/arrows and retrying.
    """

    def __init__(self, victim: int, period: int = 50, seed: int = 0):
        super().__init__(seed)
        self.victim = victim
        self.period = max(2, period)
        self._count = 0

    def reset(self) -> None:
        super().reset()
        self._count = 0

    def choose(self, sim: "Simulation", runnable: Sequence[int]) -> int:
        self._count += 1
        others = [pid for pid in runnable if pid != self.victim]
        if not others:
            return self.victim
        if self.victim in runnable and self._count % self.period == 0:
            return self.victim
        return self._rng.choice(others)
