"""The [AH88] regime: polynomial expected time, *unbounded* memory.

This baseline keeps the same leader/round skeleton as the paper's protocol
but stores what Aspnes–Herlihy store: an ever-growing integer round number
and an unbounded strip of random-walk coins — one counter per (process,
round) pair, never recycled.  Consequently each register's content grows
without bound both in magnitude (round numbers) and in width (the strip),
which is exactly what the memory audit of experiment E6 exhibits, while the
running time matches the bounded protocol's polynomial shape (E5/E10).

The cell layout is ``(pref, round, coins)`` with ``coins`` an immutable
sorted tuple of ``(round, counter)`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.coin import logic
from repro.consensus.interface import BOTTOM, ConsensusProtocol, agreed_value
from repro.registers.base import MemoryAudit
from repro.runtime.process import ProcessContext
from repro.runtime.simulation import Simulation
from repro.snapshot.sequenced import SequencedScannableMemory


@dataclass(frozen=True)
class RoundCell:
    """Shared state of one process in the round-number protocols."""

    pref: int | None
    round: int
    coins: tuple[tuple[int, int], ...] = ()  # (round, counter), sorted

    def coin_of(self, rnd: int) -> int:
        for r, c in self.coins:
            if r == rnd:
                return c
        return 0

    def with_coin(self, rnd: int, counter: int) -> "RoundCell":
        kept = tuple((r, c) for r, c in self.coins if r != rnd)
        return RoundCell(
            self.pref, self.round, tuple(sorted(kept + ((rnd, counter),)))
        )


class AspnesHerlihyConsensus(ConsensusProtocol):
    """Unbounded-rounds, unbounded-coin-strip polynomial consensus."""

    name = "aspnes-herlihy"

    def __init__(self, K: int = 2, b_barrier: int = 2):
        if K < 2:
            raise ValueError("need K >= 2")
        self.K = K
        self.b_barrier = b_barrier
        self._rounds: dict[int, int] = {}
        self._flips: dict[int, int] = {}
        self._scans: dict[int, int] = {}

    def _setup(
        self, sim: Simulation, inputs: Sequence[int], audit: MemoryAudit | None
    ):
        n = len(inputs)
        initial = RoundCell(pref=BOTTOM, round=0)
        memory = SequencedScannableMemory(sim, "mem", n, initial=initial, audit=audit)
        self._rounds = {pid: 0 for pid in range(n)}
        self._flips = {pid: 0 for pid in range(n)}
        self._scans = {pid: 0 for pid in range(n)}
        self._memory = memory

        def factory(pid: int):
            def body(ctx: ProcessContext):
                return (yield from self._process(ctx, memory, inputs[pid], n))

            return body

        return factory

    def _collect_stats(self):
        return {
            "rounds_by_pid": dict(self._rounds),
            "flips_by_pid": dict(self._flips),
            "scans_by_pid": dict(self._scans),
            "scan_attempts": self._memory.scan_attempts(),
        }

    # -- skeleton hooks (overridden by the other baselines) --------------------

    def _resolve_conflict(self, ctx: ProcessContext, cell: RoundCell, view):
        """Leaders disagree and my pref is ⊥: drive my round's shared coin.

        Returns ``(new_cell, advanced)``; ``advanced`` means a round was
        completed (pref selected), otherwise only a flip was written.
        """
        n = len(view)
        counters = [v.coin_of(cell.round) for v in view]
        coin = logic.coin_value(
            counters[ctx.pid], counters, n, self.b_barrier, None
        )
        if coin is logic.UNDECIDED:
            stepped = logic.walk_step_value(
                cell.coin_of(cell.round), ctx.rng.random() < 0.5, None
            )
            self._flips[ctx.pid] += 1
            self._m_flips.inc()
            self._m_coin_excursion.set_max(abs(stepped))
            return cell.with_coin(cell.round, stepped), False
        return self._advance(ctx.pid, cell, coin), True

    def _advance(self, pid: int, cell: RoundCell, pref) -> RoundCell:
        self._rounds[pid] += 1
        self._m_rounds.inc()
        return RoundCell(pref=pref, round=cell.round + 1, coins=cell.coins)

    # -- the protocol ------------------------------------------------------------

    def _process(self, ctx: ProcessContext, memory, input_value: int, n: int):
        i = ctx.pid
        cell = self._advance(i, RoundCell(pref=BOTTOM, round=0), input_value)
        yield from memory.write(ctx, cell)

        while True:
            view = yield from memory.scan(ctx)
            self._scans[i] += 1
            self._m_scans.inc()
            mine = view[i]
            top = max(v.round for v in view)
            self._m_leader_gap.set_max(top - min(v.round for v in view))

            if (
                mine.pref is not BOTTOM
                and mine.round == top
                and all(
                    v.pref == mine.pref or v.round <= mine.round - self.K
                    for j, v in enumerate(view)
                    if j != i
                )
            ):
                self._m_decisions.inc()
                return mine.pref

            leaders_value = agreed_value(
                [v.pref for v in view if v.round == top]
            )
            if leaders_value is not None:
                cell = self._advance(i, cell, leaders_value)
                yield from memory.write(ctx, cell)
                continue

            if mine.pref is not BOTTOM:
                cell = RoundCell(BOTTOM, cell.round, cell.coins)
                yield from memory.write(ctx, cell)
                continue

            cell, _ = yield from self._resolve_conflict_gen(ctx, cell, view)
            yield from memory.write(ctx, cell)

    def _resolve_conflict_gen(self, ctx, cell, view):
        """Generator wrapper so subclasses may perform shared-memory steps."""
        return self._resolve_conflict(ctx, cell, view)
        yield  # pragma: no cover - generator marker
