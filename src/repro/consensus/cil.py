"""The [CIL87] regime: an atomic shared coin-flip primitive.

Chor, Israeli and Li gave the first time-efficient randomized consensus,
assuming a powerful *atomic coin flip*: a single operation whose first
invocation fixes a globally agreed random value.  With such a primitive,
one flip resolves each conflicted round perfectly, so the expected number
of rounds is O(1) with no weak-coin machinery at all.

This baseline reuses the round skeleton and resolves conflicts with one
:class:`~repro.coin.oracle.OracleCoin` per round (created on first use).
It exists as the upper baseline of the comparison table (E10): what
consensus costs if the hardware grants you the primitive the paper shows
you can live without.
"""

from __future__ import annotations

from typing import Sequence

from repro.coin.oracle import OracleCoin
from repro.consensus.aspnes_herlihy import AspnesHerlihyConsensus, RoundCell
from repro.registers.base import MemoryAudit
from repro.runtime.process import ProcessContext
from repro.runtime.simulation import Simulation


class AtomicCoinConsensus(AspnesHerlihyConsensus):
    """Round skeleton + perfect per-round oracle coins (CIL assumption)."""

    name = "atomic-coin"

    def _setup(
        self, sim: Simulation, inputs: Sequence[int], audit: MemoryAudit | None
    ):
        factory = super()._setup(sim, inputs, audit)
        self._sim = sim
        self._oracles: dict[int, OracleCoin] = {}
        return factory

    def _oracle(self, rnd: int) -> OracleCoin:
        if rnd not in self._oracles:
            self._oracles[rnd] = OracleCoin(
                self._sim, f"oracle[{rnd}]", self._sim.n
            )
        return self._oracles[rnd]

    def _resolve_conflict_gen(self, ctx: ProcessContext, cell: RoundCell, view):
        """One atomic flip of my round's oracle; adopt it and advance."""
        value = yield from self._oracle(cell.round).read_value(ctx)
        self._flips[ctx.pid] += 1
        return self._advance(ctx.pid, cell, value), True
