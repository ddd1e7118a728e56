"""The paper's protocol: bounded polynomial randomized consensus (§5).

Every process keeps its entire protocol state in its single cell of the
scannable memory:

- ``pref`` — current preference: 0, 1 or ⊥;
- ``coins[0..K]`` — K+1 bounded walk counters, the process's contributions
  to the coins of the K+1 most recent rounds (older contributions are
  *withdrawn* by recycling the slot, per Observation 1.2);
- ``current_coin`` — pointer into ``coins``; slot ``next(current_coin)`` is
  the counter for the round currently being flipped;
- ``edges[0..n-1]`` — the process's row of mod-3K edge counters encoding
  the distance graph of the rounds strip (§4.3).

The main loop is a strict scan → compute → write alternation (footnote 6 of
the paper).  With the scanned view and its decoded distance graph ``G``:

1. if I am a *leader* (I dominate everyone in ``G``), my preference is a
   value, and every process that disagrees with me trails by at least K,
   **decide** my preference;
2. else if all leaders carry the same value ``v ≠ ⊥``, adopt ``v`` and
   advance a round (``inc``: advance the coin pointer, zero the recycled
   slot, and perform ``inc_graph`` on my edge-counter row);
3. else if my preference is not ⊥, write ⊥ (same round) — I am about to
   join my round's shared coin;
4. else evaluate my round's shared coin from the view
   (``next_coin_value``): contributions are taken from each process no more
   than K-1 rounds ahead of me, at the slot its pointer occupied when it
   flipped *my* round's coin; if the coin is undecided, perform one
   ``walk_step`` on my own slot and write; otherwise adopt the coin's value
   and advance a round.

Boundedness: every field of the cell ranges over a finite domain —
``pref ∈ {0, 1, ⊥}``, each coin counter in ``{-(m+1)..m+1}``, the pointer in
``{0..K}``, each edge counter in ``{0..3K-1}`` — and the scannable memory
adds only handshake bits.  The memory audit of every run with metrics on
certifies this (experiment E6).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from repro.coin import logic
from repro.consensus.interface import BOTTOM, ConsensusProtocol
from repro.registers.base import MemoryAudit
from repro.runtime.process import ProcessContext
from repro.runtime.simulation import Simulation
from repro.snapshot.arrows import ArrowScannableMemory
from repro.snapshot.interface import ScannableMemory
from repro.snapshot.sequenced import SequencedScannableMemory
from repro.strip.edge_counters import CounterGraph


#: The four outcomes of :func:`round_action`.
DECIDE = "decide"
ADOPT = "adopt"
WITHDRAW = "withdraw"
CONFLICT = "conflict"


def round_action(
    i: int, prefs: Sequence, graph: CounterGraph
) -> tuple[str, int | None]:
    """Paper lines 2–6: what process i does with a clean scan.

    ``prefs`` are the scanned preferences and ``graph`` decodes the
    scanned edge rows.  Returns ``(action, value)``:

    - ``(DECIDE, v)``: my preference ``v`` is a value, I am a leader (I
      dominate everyone in ``graph``), and every process that disagrees
      with me (⊥ counts as disagreeing) trails me by at least
      K = ``graph.K``;
    - ``(ADOPT, v)``: all leaders carry the same value ``v ≠ ⊥``; adopt it
      and advance a round;
    - ``(WITHDRAW, None)``: the leaders agree on no value and my
      preference is not ⊥; write ⊥ (same round);
    - ``(CONFLICT, None)``: the leaders agree on no value and I already
      withdrew; resolve the round randomly (lines 7–8, the caller's coin).

    Shared by :class:`AdsConsensus` and the fused lanes of
    :mod:`repro.batch.engine`.  Raises
    :class:`~repro.strip.distance_graph.PositiveCycleError` when the
    decide test meets a positive cycle.
    """
    pref = prefs[i]
    leaders = graph.leaders
    if pref is not BOTTOM and i in leaders:
        for k in graph.near_pids(i):
            if prefs[k] != pref:
                break
        else:
            return DECIDE, pref
    if leaders:
        value = prefs[leaders[0]]
        if value is not BOTTOM:
            for lead in leaders:
                if prefs[lead] != value:
                    break
            else:
                return ADOPT, value
    if pref is not BOTTOM:
        return WITHDRAW, None
    return CONFLICT, None


@dataclass(frozen=True)
class AdsCell:
    """One process's complete shared state (a single scannable-memory cell)."""

    pref: int | None
    coins: tuple[int, ...]  # K+1 bounded walk counters
    current_coin: int  # pointer in {0..K}
    edges: tuple[int, ...]  # n mod-3K edge counters

    def next_slot(self) -> int:
        """Index of the counter for the round currently being flipped."""
        return (self.current_coin + 1) % len(self.coins)


class AdsConsensus(ConsensusProtocol):
    """Attiya–Dolev–Shavit bounded polynomial randomized consensus."""

    name = "ads"

    # The whole protocol state lives in the process's shared cell, so a
    # restarted incarnation can recover by scanning — see _process.
    supports_recovery = True

    def __init__(
        self,
        K: int = 2,
        b_barrier: int = 2,
        m_bound: int | None = None,
        f_factor: int = 4,
        snapshot_kind: str = "arrows",
        ghost_wseqs: bool = False,
    ):
        if K < 2:
            raise ValueError("the protocol needs K >= 2 (the paper sets K = 2)")
        self.K = K
        self.b_barrier = b_barrier
        self.m_bound = m_bound
        self.f_factor = f_factor
        self.snapshot_kind = snapshot_kind
        # Ghost write sequence numbers let post-hoc analyses (virtual
        # global rounds, P3 ordering) identify scans precisely; they are
        # verification instrumentation, never read by the algorithm.
        self.ghost_wseqs = ghost_wseqs
        self._rounds: dict[int, int] = {}
        self._flips: dict[int, int] = {}
        self._scans: dict[int, int] = {}

    # -- setup ---------------------------------------------------------------

    def _initial_cell(self, n: int) -> AdsCell:
        return AdsCell(
            pref=BOTTOM,
            coins=(0,) * (self.K + 1),
            current_coin=0,
            edges=(0,) * n,
        )

    def _make_memory(
        self,
        sim: Simulation,
        n: int,
        initial: AdsCell,
        audit: MemoryAudit | None,
        name: str = "mem",
    ) -> ScannableMemory:
        if self.snapshot_kind == "arrows":
            return ArrowScannableMemory(
                sim, name, n, initial=initial, audit=audit, ghost=self.ghost_wseqs
            )
        if self.snapshot_kind == "arrows-bloom":
            return ArrowScannableMemory(
                sim, name, n, initial=initial, audit=audit, ghost=self.ghost_wseqs,
                arrow_kind="bloom",
            )
        if self.snapshot_kind == "sequenced":
            return SequencedScannableMemory(sim, name, n, initial=initial, audit=audit)
        if self.snapshot_kind == "embedded":
            from repro.snapshot.embedded import EmbeddedScanSnapshot

            return EmbeddedScanSnapshot(sim, name, n, initial=initial, audit=audit)
        raise ValueError(f"unknown snapshot_kind: {self.snapshot_kind!r}")

    def _setup(
        self, sim: Simulation, inputs: Sequence[int], audit: MemoryAudit | None
    ):
        n = len(inputs)
        m = self.m_bound if self.m_bound is not None else logic.default_m(
            self.b_barrier, n, self.f_factor
        )
        initial = self._initial_cell(n)
        memory = self._make_memory(sim, n, initial, audit)
        self._rounds = {pid: 0 for pid in range(n)}
        self._flips = {pid: 0 for pid in range(n)}
        self._scans = {pid: 0 for pid in range(n)}
        self._memory = memory

        def factory(pid: int):
            def body(ctx: ProcessContext):
                return self._process(ctx, memory, inputs[pid], n, m, initial)

            return body

        return factory

    def _collect_stats(self):
        return {
            "rounds_by_pid": dict(self._rounds),
            "flips_by_pid": dict(self._flips),
            "scans_by_pid": dict(self._scans),
            "scan_attempts": self._memory.scan_attempts(),
        }

    # -- the protocol --------------------------------------------------------

    def _process(
        self,
        ctx: ProcessContext,
        memory: ScannableMemory,
        input_value: int,
        n: int,
        m: int,
        initial: AdsCell,
    ):
        i = ctx.pid
        cell = None
        if ctx.incarnation:
            # Crash recovery: the cell *is* the process's entire protocol
            # state, so a restarted incarnation scans and resumes from its
            # own slot.  To every other process this is indistinguishable
            # from the crashed incarnation merely being slow, so safety is
            # untouched.  (A write that was in flight at the crash either
            # landed or didn't — both are legal interleavings.)
            view = yield from memory.scan(ctx)
            self._scans[i] += 1
            self._m_scans.inc()
            if view[i] != initial:
                cell = view[i]
        if cell is None:
            # Initial write: one inc from the known all-initial state, with
            # the input as preference (the paper's pre-loop write).  Also
            # the recovery path for a process that crashed before its
            # pre-loop write landed: restarting fresh with the original
            # input preserves validity.
            cell = self._inc(i, initial, CounterGraph((initial.edges,) * n, self.K))
            cell = replace(cell, pref=input_value)
            yield from memory.write(ctx, cell)

        while True:
            view = yield from memory.scan(ctx)
            self._scans[i] += 1
            self._m_scans.inc()
            graph = CounterGraph([v.edges for v in view], self.K)
            self._observe_leader_gap(graph)
            action, value = round_action(i, [v.pref for v in view], graph)

            # Line 2: leader with every disagreeing process K behind -> decide.
            if action == DECIDE:
                self._m_decisions.inc()
                return value

            if action == ADOPT:
                # Lines 3-4: all leaders agree on a value -> adopt it, advance.
                cell = replace(self._inc(i, cell, graph), pref=value)
            elif action == WITHDRAW:
                # Lines 5-6: leaders disagree; withdraw my preference first.
                cell = replace(cell, pref=BOTTOM)
            else:
                # Lines 7-8: resolve the conflict randomly (hook: the paper
                # drives the round's weak shared coin; subclasses may swap
                # the randomness source while keeping the bounded strip).
                cell = self._resolve_conflict(ctx, cell, view, graph, n, m)
            yield from memory.write(ctx, cell)

    def _resolve_conflict(
        self,
        ctx: ProcessContext,
        cell: AdsCell,
        view: Sequence[AdsCell],
        graph: CounterGraph,
        n: int,
        m: int,
    ) -> AdsCell:
        """Paper lines 7-8: drive my round's weak shared coin."""
        coin = self._next_coin_value(ctx.pid, cell, view, graph, n, m)
        if coin is logic.UNDECIDED:
            return self._flip_next_coin(ctx, cell, m)
        cell = self._inc(ctx.pid, cell, graph)
        return replace(cell, pref=coin)

    # -- protocol pieces (the paper's procedures) ------------------------------

    def _observe_leader_gap(self, graph: CounterGraph) -> None:
        """Track the largest lead any leader holds over the trailing pack.

        The gap drives decidability (line 2 needs disagreeers to trail by
        K), so its excursion over a run is the E4 round-dynamics signal.
        Skipped when metrics are off: the extra longest-path relaxation is
        pure observability cost.  Also skipped for an illegal graph (a
        positive cycle, e.g. decoded from a fault-corrupted view): an
        observer must not change control flow, so what such a view means
        is left to the protocol's own decide and adopt steps.
        """
        if self._metrics is None or not self._metrics.enabled:
            return
        leaders = graph.leaders
        if not leaders:
            return
        try:
            dists = graph.dists_from(leaders[0])
        except ValueError:
            return
        finite = [d for d in dists if d != float("-inf")]
        self._m_leader_gap.set_max(max(finite, default=0))

    def _inc(self, i: int, cell: AdsCell, graph: CounterGraph) -> AdsCell:
        """The paper's ``inc(round)``: advance pointer, recycle slot,
        ``inc_graph`` the edge-counter row.

        ``graph`` decodes the scanned rows.  My own row comes from my
        cell, since local knowledge is freshest: when the scanned copy
        differs (a fault corrupted my last write, say) the rows with my
        cell's row are decoded instead.
        """
        if graph.rows[i] != cell.edges:
            rows = list(graph.rows)
            rows[i] = cell.edges
            graph = CounterGraph(rows, self.K)
        new_row = graph.inc_row(i)
        pointer = cell.next_slot()
        coins = list(cell.coins)
        coins[(pointer + 1) % len(coins)] = 0  # withdraw round r-K, prepare r+1
        self._rounds[i] += 1
        self._m_rounds.inc()
        self._m_edge_incs.inc(
            sum(1 for old, new in zip(cell.edges, new_row) if old != new)
        )
        return AdsCell(
            pref=cell.pref,
            coins=tuple(coins),
            current_coin=pointer,
            edges=new_row,
        )

    def _next_coin_value(
        self,
        i: int,
        cell: AdsCell,
        view: Sequence[AdsCell],
        graph: CounterGraph,
        n: int,
        m: int,
    ):
        """The paper's ``next_coin_value(round)``.

        Assemble my round's coin from the view: process j contributes its
        counter for my round iff it is at most K-1 rounds ahead (``(j, i) ∈
        G`` with ``w(j, i) < K``); the contribution sits ``w(j, i)`` slots
        behind j's *next* slot.  Anyone K or more ahead has withdrawn its
        contribution, which costs my coin at most an extra O(n²) expected
        flips (Lemma 3.2) but never its correctness.
        """
        slots = len(cell.coins)
        counters = [0] * n
        for j, w in graph.coin_sources(i):
            other = view[j]
            counters[j] = other.coins[(other.current_coin - w + 1) % slots]
        counters[i] = cell.coins[cell.next_slot()]
        return logic.coin_value(counters[i], counters, n, self.b_barrier, m)

    def _flip_next_coin(self, ctx: ProcessContext, cell: AdsCell, m: int) -> AdsCell:
        """The paper's ``flip_next_coin``: one walk step on my round's slot."""
        slot = cell.next_slot()
        heads = ctx.rng.random() < 0.5
        coins = list(cell.coins)
        coins[slot] = logic.walk_step_value(coins[slot], heads, m)
        self._flips[ctx.pid] += 1
        self._m_flips.inc()
        self._m_coin_excursion.set_max(abs(coins[slot]))
        return replace(cell, coins=tuple(coins))


class AdsConsensusObject:
    """A one-shot binary consensus *shared object* (composable form).

    The protocol class above owns a whole simulation run; this wrapper
    exposes the same algorithm as an object living inside a larger
    simulation, so higher layers (multivalued consensus, the universal
    construction of :mod:`repro.universal`) can create many instances and
    have processes invoke them mid-program::

        cons = AdsConsensusObject(sim, "cons[0]", n)
        ...
        decision = yield from cons.propose(ctx, my_bit)

    ``propose`` is idempotent per process in the sense that any subset of
    the n processes may show up: absentees look exactly like crashed
    processes, which the protocol tolerates by design (wait-freedom).
    """

    def __init__(
        self,
        sim: Simulation,
        name: str,
        n: int,
        K: int = 2,
        b_barrier: int = 2,
        m_bound: int | None = None,
        f_factor: int = 4,
        snapshot_kind: str = "arrows",
        audit: MemoryAudit | None = None,
    ):
        self.name = name
        self.n = n
        self._protocol = AdsConsensus(
            K=K,
            b_barrier=b_barrier,
            m_bound=m_bound,
            f_factor=f_factor,
            snapshot_kind=snapshot_kind,
        )
        self._m = (
            m_bound
            if m_bound is not None
            else logic.default_m(b_barrier, n, f_factor)
        )
        self._protocol._bind_metrics(sim)
        self._initial = self._protocol._initial_cell(n)
        self._memory = self._protocol._make_memory(
            sim, n, self._initial, audit or MemoryAudit(), name=name
        )
        self._protocol._rounds = {pid: 0 for pid in range(n)}
        self._protocol._flips = {pid: 0 for pid in range(n)}
        self._protocol._scans = {pid: 0 for pid in range(n)}
        self._protocol._memory = self._memory
        self.decisions: dict[int, int] = {}

    def propose(self, ctx: ProcessContext, value: int):
        """Run the consensus protocol to completion; return the decision."""
        if value not in (0, 1):
            raise ValueError(f"binary consensus: value must be 0 or 1, got {value!r}")
        if ctx.pid in self.decisions:
            return self.decisions[ctx.pid]
        decision = yield from self._protocol._process(
            ctx, self._memory, value, self.n, self._m, self._initial
        )
        self.decisions[ctx.pid] = decision
        return decision

    def stats(self) -> dict:
        return self._protocol._collect_stats()


def pref_reader(sim: Simulation, pid: int):
    """Read ``pid``'s currently written preference (for SplitAdversary)."""
    memory = sim.shared.get("mem")
    if memory is None:
        return None
    cell = memory.peek_view()[pid]
    return getattr(cell, "pref", None)
