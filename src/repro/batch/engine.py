"""Struct-of-arrays execution of many independent ADS consensus runs.

One process, one fused step loop, many *lanes*: each lane is an
independent ``(seed, inputs)`` simulation of the default
:class:`~repro.consensus.ads.AdsConsensus` protocol under the default
:class:`~repro.runtime.scheduler.RandomScheduler`.  Instead of building a
generator pipeline per process per lane (registers → snapshot → protocol
→ ``Simulation.step``), the engine lays the whole simulation state out as
flat per-lane arrays —

- ``arrows``   — the n×n one-bit write-arrow registers, flattened;
- ``V``        — the n scan registers, each a ``(cell, toggle)`` pair;
- ``cells``    — each process's local protocol cell as a plain tuple
  ``(pref, coins, current_coin, edges)``;
- ``phase``/``pos`` — each process's position inside the fixed atomic-op
  script of the ADS round (raise arrows → publish V → arm → first
  collect → second collect → read arrows → compute);
- walk counters, round numbers and strip edge counters ride inside the
  cell tuples exactly as their object counterparts do

— and advances lanes through one dispatch loop with no generator resumes,
no ``OpIntent`` objects and no per-step list rebuilds.

**Bit-identical by construction.**  The scheduler stream is the serial
one: per lane, ``derive_rng(seed, "random-scheduler")`` drawn over the
same pid-ascending runnable list that ``Simulation.runnable_pids`` would
produce.  ``RandomScheduler.choose`` draws ``k = nrun.bit_length()`` bits
per try and rejects values ``>= nrun``; each try consumes one 32-bit
Mersenne Twister word and keeps its top ``k`` bits.  A lane draws those
words in blocks (one ``getrandbits(32 * BLOCK_WORDS)``, whose i-th word
sits at bits ``32i`` upwards on every platform), keeps each word's top
byte, and decodes the block with one ``bytes.translate`` per runnable
set: every top byte maps to the pid ``choose`` would grant, and the
bytes it would reject are deleted.  With ``n <= 255`` the top byte holds
all ``k <= 8`` bits ``choose`` reads.  Coin flips consume
``derive_rng(seed, "process", pid).random()`` just like the serial
``ctx.rng``.  Every state transition mirrors one atomic step of the
generator runtime — a pending operation executes on the step *after* it
was yielded, so decisions land on the very step counts the serial
``Simulation`` reports.  Lanes retire individually on decide; a slow lane
never blocks the batch.

**Fallback, never divergence.**  Anything outside the fast path — a
non-default protocol configuration, ``n < 2`` or ``n > 255``, non-binary
inputs, an ill-formed counter decode or a positive cycle in the strip
graph, a walk overflow, an exhausted step budget — marks the lane with a
``fallback`` reason instead of guessing.
Callers (see :func:`repro.parallel.run_tasks_partial`) re-run fallback
lanes through the ordinary serial entry point, which reproduces the
serial result *or the serial exception* exactly.  The fast path is an
optimisation, never a semantic fork.

The protocol step's strip-graph work and its round rule are the
generator protocol's own: a lane decodes its scanned edge rows with
:class:`~repro.strip.edge_counters.CounterGraph` and picks decide, adopt,
withdraw or coin with :func:`~repro.consensus.ads.round_action`, and it
sums the coin over the decoder's ``coin_sources``.  The decoder is
memoised as one instance per edge-row tuple, which holds its leaders and
caches its own distance, decide, coin and increment queries: independent
lanes revisit the same small strip-graph states constantly, so across a
batch the amortised graph work per step drops well below the serial
interpreter's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.coin.logic import default_m
from repro.consensus.ads import ADOPT, DECIDE, WITHDRAW, round_action
from repro.runtime.rng import derive_rng
from repro.strip.distance_graph import PositiveCycleError
from repro.strip.edge_counters import CounterGraph, IllFormedCounters

#: Fast-path protocol constants — the ``AdsConsensus()`` defaults.  A lane
#: needing anything else must come in through the serial fallback.
K = 2
_SLOTS = K + 1  # coin slots per cell
_B = 2  # barrier multiplier b

#: Default step budget, matching ``ConsensusProtocol.run``.
DEFAULT_MAX_STEPS = 2_000_000

#: Scheduler words a lane draws per ``getrandbits`` call.  An n = 2 or 3
#: lane consumes about 600 to 1,400 words, so it refills once or twice.
BLOCK_WORDS = 1024


@dataclass(frozen=True)
class LaneSpec:
    """One independent simulation: default ADS + random scheduler.

    ``inputs`` defines ``n``; ``seed`` roots every RNG stream exactly as
    the serial path does (scheduler from ``(seed, "random-scheduler")``,
    process coins from ``(seed, "process", pid)``).
    """

    inputs: tuple[int, ...]
    seed: int
    max_steps: int = DEFAULT_MAX_STEPS

    @property
    def n(self) -> int:
        return len(self.inputs)


@dataclass
class LaneResult:
    """A lane's outcome, field-compatible with the serial ``outcome()``.

    ``fallback`` is ``None`` when the fast path finished the lane; any
    other value is the reason the lane must be re-run serially (its other
    fields are then meaningless and must not be read).
    """

    spec: LaneSpec
    decisions: dict[int, Any] = field(default_factory=dict)
    total_steps: int = 0
    steps_by_pid: dict[int, int] = field(default_factory=dict)
    rounds_by_pid: dict[int, int] = field(default_factory=dict)
    flips_by_pid: dict[int, int] = field(default_factory=dict)
    scans_by_pid: dict[int, int] = field(default_factory=dict)
    fallback: str | None = None
    schedule: list[int] | None = None

    def max_rounds(self) -> int:
        return max(self.rounds_by_pid.values(), default=0)


class _Caches:
    """Memoised strip-graph decoders and grant decoders, shared across a
    batch's lanes.

    ``graphs`` maps an edge-row tuple to its :class:`CounterGraph` (with
    the fast-path K), and ``grants`` a runnable tuple to its grant
    decoder.  Both are pure functions of their keys, so sharing across
    lanes (and across calls) is sound.  Rows that fail to decode are not
    cached: the lane that meets them falls back.
    """

    __slots__ = ("graphs", "grants")

    #: Overflow guard: the reachable edge-row state space is tiny for the
    #: small ``n`` the campaigns sweep, but a service process batching
    #: forever should not grow without bound.
    LIMIT = 1 << 20

    def __init__(self) -> None:
        self.graphs: dict[tuple, CounterGraph] = {}
        self.grants: dict[tuple, tuple[bytes, bytes]] = {}

    def trim(self) -> None:
        for cache in (self.graphs, self.grants):
            if len(cache) > self.LIMIT:
                cache.clear()


def _grant_decoder(runnable: tuple) -> tuple[bytes, bytes]:
    """``RandomScheduler.choose`` over ``runnable`` as ``bytes.translate``
    arguments: a table mapping a word's top byte to the pid granted from
    its top ``k`` bits, and the top bytes whose draw is rejected."""
    nrun = len(runnable)
    shift = 8 - nrun.bit_length()
    table = bytearray(256)
    reject = bytearray()
    for top in range(256):
        r = top >> shift
        if r < nrun:
            table[top] = runnable[r]
        else:
            reject.append(top)
    return bytes(table), bytes(reject)


def _draw_block(getrandbits) -> bytes:
    """The top bytes of the next ``BLOCK_WORDS`` scheduler words, in draw
    order: ``getrandbits`` fills a wide result from its least significant
    32-bit word upwards, one Mersenne Twister output per word."""
    return getrandbits(32 * BLOCK_WORDS).to_bytes(4 * BLOCK_WORDS, "little")[3::4]


def _words_spanned(words: bytes, reject: bytes, grants: int) -> int:
    """Draws the serial loop makes to grant the first ``grants`` pids of
    ``words``: the shortest prefix holding that many accepted words.

    Each pass extends the prefix by the shortfall, which can add at most
    that many accepted words, so the prefix never overshoots.
    """
    length = grants
    got = len(words[:length].translate(None, reject))
    while got < grants:
        short = grants - got
        got += len(words[length : length + short].translate(None, reject))
        length += short
    return length


class _Lane:
    """One simulation's flattened state inside the batch."""

    __slots__ = (
        "spec",
        "n",
        "m",
        "bn",
        "caches",
        "others",
        "armidx",
        "raisidx",
        "V",
        "arrows",
        "cells",
        "toggle",
        "phase",
        "pos",
        "clean",
        "first",
        "second",
        "steps",
        "rounds",
        "flips",
        "scans",
        "rand",
        "grb",
        "runnable",
        "decoder",
        "words",
        "wpos",
        "step_count",
        "decisions",
        "done",
        "fallback",
        "schedule",
        "viewbuf",
        "prefbuf",
    )

    def __init__(self, spec: LaneSpec, caches: _Caches, record: bool) -> None:
        self.spec = spec
        self.caches = caches
        self.done = False
        self.fallback: str | None = None
        self.schedule: list[int] | None = [] if record else None
        self.step_count = 0
        self.decisions: dict[int, Any] = {}
        n = self.n = len(spec.inputs)
        self.cells: list = [None] * n
        if n < 2:
            # The single-process run decides during its V-write step; the
            # phase script below models the n >= 2 scan/compute shape.
            self.fallback = "fast path needs n >= 2"
            return
        if n > 255:
            # A grant is decoded from one byte per scheduler word.
            self.fallback = "fast path needs n <= 255"
            return
        if any(v not in (0, 1) for v in spec.inputs):
            self.fallback = "fast path needs binary inputs"
            return
        self.m = default_m(_B, n)
        self.bn = _B * n
        self.others = [[j for j in range(n) if j != i] for i in range(n)]
        self.armidx = [[i * n + j for j in self.others[i]] for i in range(n)]
        self.raisidx = [[j * n + i for j in self.others[i]] for i in range(n)]
        initial = (None, (0,) * _SLOTS, 0, (0,) * n)
        self.V = [(initial, 0) for _ in range(n)]
        self.arrows = [0] * (n * n)
        self.toggle = [0] * n
        self.phase = [0] * n
        self.pos = [0] * n
        self.clean = [True] * n
        self.first = [[None] * (n - 1) for _ in range(n)]
        self.second = [[None] * (n - 1) for _ in range(n)]
        self.steps = [0] * n
        self.rounds = [0] * n
        self.flips = [0] * n
        self.scans = [0] * n
        self.viewbuf: list = [None] * n
        self.prefbuf: list = [None] * n
        self.rand = [derive_rng(spec.seed, "process", pid).random for pid in range(n)]
        self.grb = derive_rng(spec.seed, "random-scheduler").getrandbits
        self.runnable = tuple(range(n))
        self.decoder = self._decoder(self.runnable)
        self.words = b""
        self.wpos = 0
        # Prime each process: the serial generator runs `_inc` on the
        # initial cell, installs the input preference, and parks on its
        # first pending write-arrow op — all before any step is granted.
        # ``_inc`` on the initial cell moves the round pointer 0 → 1 and
        # zeroes the slot after it (a no-op on all-zero coins).
        initial_graph = self._graph(tuple((0,) * n for _ in range(n)))
        for pid in range(n):
            new_row = initial_graph.inc_row(pid)
            self.rounds[pid] = 1
            self.cells[pid] = (spec.inputs[pid], (0,) * _SLOTS, 1, new_row)

    def _decoder(self, runnable: tuple) -> tuple[bytes, bytes]:
        grants = self.caches.grants
        cached = grants.get(runnable)
        if cached is None:
            cached = grants[runnable] = _grant_decoder(runnable)
        return cached

    def _graph(self, erows: tuple) -> CounterGraph:
        """The memoised decoder of ``erows``; raises ``IllFormedCounters``."""
        graphs = self.caches.graphs
        graph = graphs.get(erows)
        if graph is None:
            graph = graphs[erows] = CounterGraph(erows, K)
        return graph

    # ------------------------------------------------------------------
    # The fused step loop.
    # ------------------------------------------------------------------

    def advance(self, budget: int) -> None:
        """Run up to ``budget`` atomic steps of this lane.

        Grants come from the lane's current block of scheduler words
        (``words``, next undrawn word at ``wpos``): a segment is the rest
        of the block decoded in C under one runnable set into a ``bytes``
        of pids, cut to the budget, and the loop body over it is only the
        per-phase state machine.  Per-pid step counts, the recorded
        schedule and the step count are taken from the grants a segment
        used.
        """
        if self.done or self.fallback is not None:
            return
        remaining = self.spec.max_steps - self.step_count
        if remaining <= 0:
            # Serial ``Simulation.run`` raises StepBudgetExceeded here.
            self.fallback = "step budget exhausted"
            return
        todo = budget if budget < remaining else remaining
        n = self.n
        last = n - 2
        runnable = self.runnable
        table, reject = self.decoder
        words = self.words
        wpos = self.wpos
        phase = self.phase
        pos = self.pos
        clean = self.clean
        V = self.V
        arrows = self.arrows
        others = self.others
        armidx = self.armidx
        raisidx = self.raisidx
        firsts = self.first
        seconds = self.second
        steps = self.steps
        record = self.schedule
        count = 0
        while count < todo:
            pending = words[wpos:]
            grants = pending.translate(table, reject)
            if not grants:
                # The serial loop would reject every word left in the block.
                words = _draw_block(self.grb)
                wpos = 0
                continue
            seg = grants[: todo - count]
            decided = False
            it = iter(seg)
            for i in it:
                ph = phase[i]
                k = pos[i]
                if ph == 3:  # first collect: read V[j]
                    firsts[i][k] = V[others[i][k]]
                    if k < last:
                        pos[i] = k + 1
                    else:
                        phase[i] = 4
                        pos[i] = 0
                elif ph == 4:  # second collect + incremental double-read check
                    s = V[others[i][k]]
                    seconds[i][k] = s
                    f = firsts[i][k]
                    if f is not s and (f[1] != s[1] or f[0] != s[0]):
                        clean[i] = False
                    if k < last:
                        pos[i] = k + 1
                    else:
                        phase[i] = 5
                        pos[i] = 0
                elif ph == 5:  # read own arm arrow A[i][j]
                    if arrows[armidx[i][k]]:
                        clean[i] = False
                    if k < last:
                        pos[i] = k + 1
                    elif not clean[i]:
                        phase[i] = 2  # dirty scan: re-arm and retry
                        pos[i] = 0
                        clean[i] = True
                    else:
                        # Clean scan: the protocol step runs on this same
                        # atomic step (the serial generator computes and —
                        # on decide — StopIterates inside this advance).
                        if self._protocol_step(i):
                            decided = True
                            break
                        if self.fallback is not None:
                            break
                elif ph == 2:  # arm: write A[i][j] := 0
                    arrows[armidx[i][k]] = 0
                    if k < last:
                        pos[i] = k + 1
                    else:
                        phase[i] = 3
                        pos[i] = 0
                elif ph == 0:  # raise write arrows: A[j][i] := 1
                    arrows[raisidx[i][k]] = 1
                    if k < last:
                        pos[i] = k + 1
                    else:
                        phase[i] = 1
                        pos[i] = 0
                else:  # ph == 1: publish the V register (toggle flips)
                    t = self.toggle[i] ^ 1
                    self.toggle[i] = t
                    V[i] = (self.cells[i], t)
                    phase[i] = 2
                    pos[i] = 0
                    clean[i] = True
            used = len(seg) - it.__length_hint__()
            seg = seg[:used]
            count += used
            for pid in runnable:
                steps[pid] += seg.count(pid)
            if record is not None:
                record.extend(seg)
            if decided or used < len(grants):
                # Resume right after the last granted word.  After a
                # decision k may shrink, and a word rejected here would
                # then grant, so trailing rejects are not skipped.
                wpos += _words_spanned(pending, reject, used)
            else:
                # Every grant taken under an unchanged runnable set: the
                # serial loop rejects the trailing words too.
                wpos = len(words)
            if decided:
                runnable = tuple(pid for pid in runnable if pid != i)
                if not runnable:
                    break
                table, reject = self._decoder(runnable)
            elif self.fallback is not None:
                break
        self.step_count += count
        self.runnable = runnable
        self.decoder = (table, reject)
        self.words = words
        self.wpos = wpos
        if not runnable:
            self.done = True
        elif self.fallback is None and self.step_count >= self.spec.max_steps:
            self.fallback = "step budget exhausted"

    def _protocol_step(self, i: int) -> bool:
        """One ADS round decision for ``i`` after a clean scan.

        Returns True when ``i`` decided (the lane retires the pid).  When
        the shared core rejects the scanned rows (ill-formed counters, or
        a positive cycle met by a distance query) it sets
        ``self.fallback`` to the error's message and returns False, and
        likewise with its own reason when a coin flip would leave the
        bounded walk range.
        """
        self.scans[i] += 1
        n = self.n
        view = self.viewbuf
        prefs = self.prefbuf
        others_i = self.others[i]
        sec = self.second[i]
        for k in range(n - 1):
            j = others_i[k]
            scanned = view[j] = sec[k][0]
            prefs[j] = scanned[0]
        # Every new cell is published before its owner's next scan, so
        # the cell is also the scan's own entry.
        cell = view[i] = self.cells[i]
        prefs[i] = cell[0]
        try:
            # A list comprehension builds the key faster than a generator.
            graph = self._graph(tuple([c[3] for c in view]))
            action, value = round_action(i, prefs, graph)
            if action == DECIDE:
                self.decisions[i] = value
                return True
            if action == ADOPT:
                new_cell = self._advance_cell(i, cell, graph, value)
            elif action == WITHDRAW:
                new_cell = (None, cell[1], cell[2], cell[3])
            else:
                # ``_resolve_conflict``: read my round's shared coin from
                # the view, then flip it or adopt its value.
                nslot = (cell[2] + 1) % _SLOTS
                own = cell[1][nslot]
                m = self.m
                if own < -m or own > m:
                    coin = 1  # bounded-overflow rule: deterministic heads
                else:
                    total = own
                    for j, w in graph.coin_sources(i):
                        vj = view[j]
                        total += vj[1][(vj[2] - w + 1) % _SLOTS]
                    if total > self.bn:
                        coin = 1
                    elif total < -self.bn:
                        coin = 0
                    else:
                        coin = None
                if coin is not None:
                    new_cell = self._advance_cell(i, cell, graph, coin)
                else:
                    # Flip: one ctx.rng draw, one ±1 walk step on my slot.
                    new_value = own + (1 if self.rand[i]() < 0.5 else -1)
                    if new_value < -(m + 1) or new_value > m + 1:
                        self.fallback = "walk step outside bounded counter range"
                        return False
                    self.flips[i] += 1
                    coins = list(cell[1])
                    coins[nslot] = new_value
                    new_cell = (cell[0], tuple(coins), cell[2], cell[3])
        except (IllFormedCounters, PositiveCycleError) as exc:
            self.fallback = str(exc)
            return False
        self.cells[i] = new_cell
        self.phase[i] = 0
        self.pos[i] = 0
        return False

    def _advance_cell(self, i: int, cell: tuple, graph: CounterGraph, pref):
        """``_inc`` + set preference: move to the next round slot, zero
        the slot after it, bump this row's edge counters."""
        new_row = graph.inc_row(i)
        pointer = (cell[2] + 1) % _SLOTS
        coins = list(cell[1])
        coins[(pointer + 1) % _SLOTS] = 0
        self.rounds[i] += 1
        return (pref, tuple(coins), pointer, new_row)

    def result(self) -> LaneResult:
        n_range = range(self.n)
        return LaneResult(
            spec=self.spec,
            decisions=dict(self.decisions),
            total_steps=self.step_count,
            steps_by_pid={pid: self.steps[pid] for pid in n_range}
            if self.fallback is None
            else {},
            rounds_by_pid={pid: self.rounds[pid] for pid in n_range}
            if self.fallback is None
            else {},
            flips_by_pid={pid: self.flips[pid] for pid in n_range}
            if self.fallback is None
            else {},
            scans_by_pid={pid: self.scans[pid] for pid in n_range}
            if self.fallback is None
            else {},
            fallback=self.fallback,
            schedule=self.schedule,
        )


#: Steps each active lane advances per round-robin turn.  Large enough to
#: amortise the outer loop, small enough that retiring lanes free their
#: slot quickly.
DEFAULT_CHUNK = 4096

#: Shared memo caches for the module's default entry point.
_SHARED_CACHES = _Caches()


def run_lanes(
    specs: "list[LaneSpec] | tuple[LaneSpec, ...]",
    chunk: int = DEFAULT_CHUNK,
    record_schedule: bool = False,
) -> list[LaneResult]:
    """Advance every lane to completion (or fallback); results in order.

    Lanes retire individually — the round-robin outer loop drops a lane
    the moment it decides everywhere (or falls back), so one adversarial
    slow lane costs only its own steps, not the batch's.  ``chunk`` is
    the steps per lane per turn and must be at least 1.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1 steps per turn, got {chunk!r}")
    caches = _SHARED_CACHES
    lanes = [_Lane(spec, caches, record_schedule) for spec in specs]
    active = [lane for lane in lanes if not lane.done and lane.fallback is None]
    while active:
        still = []
        for lane in active:
            lane.advance(chunk)
            if not lane.done and lane.fallback is None:
                still.append(lane)
        active = still
    caches.trim()
    return [lane.result() for lane in lanes]
