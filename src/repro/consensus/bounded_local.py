"""Bounded-memory *exponential* consensus: local coins on the §4 strip.

The paper's introduction notes that a bounded exponential-time algorithm
can be derived from Abrahamson's by replacing its unbounded time stamps
with bounded concurrent time-stamp machinery ([ADS89], via [DS89]).  This
protocol realizes the same cell of the design space using the paper's own
rounds strip instead: it is exactly :class:`~repro.consensus.ads.
AdsConsensus` — bounded edge counters, bounded cells, the same leader and
decision rules — with the weak shared coin replaced by an *independent
local coin* (re-draw the preference and advance a round).

The result completes the 2×2 time × memory matrix with read/write
registers only:

|                      | exponential time        | polynomial time       |
|----------------------|-------------------------|-----------------------|
| **unbounded memory** | local-coin ([A88])      | Aspnes–Herlihy [AH88] |
| **bounded memory**   | **this module**         | **ADS (the paper)**   |

Safety is inherited unchanged (the coin path never affected consistency or
validity); only the expected number of conflicted rounds changes — from
O(1) to 2^Θ(n) under the lockstep adversary — so comparing this protocol
with the paper's isolates precisely what the *shared* coin buys, with the
memory bound held fixed.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.coin.local import local_coin_flip
from repro.consensus.ads import AdsCell, AdsConsensus
from repro.runtime.process import ProcessContext
from repro.strip.edge_counters import CounterGraph


class BoundedLocalCoinConsensus(AdsConsensus):
    """The paper's protocol with the shared coin swapped for local coins."""

    name = "bounded-local-coin"

    def _resolve_conflict(
        self,
        ctx: ProcessContext,
        cell: AdsCell,
        view: Sequence[AdsCell],
        graph: CounterGraph,
        n: int,
        m: int,
    ) -> AdsCell:
        """Leaders disagree: re-draw privately and advance a round."""
        self._flips[ctx.pid] += 1
        cell = self._inc(ctx.pid, cell, graph)
        return replace(cell, pref=local_coin_flip(ctx))
