"""The paper's bounded scannable memory (§2.2).

Layout (for n processes):

- ``V[i]`` — a 1-writer-n-reader atomic register holding process ``i``'s
  value together with an *alternating bit* (so two consecutive writes by the
  same process always differ — the simplification the paper adopts) and a
  ghost write sequence number used only by the trace checkers;
- ``A[i][j]`` (``i ≠ j``) — a 2-writer "arrow" register between scanner
  ``i`` and writer ``j``:  scanner ``i`` writes 0 ("arrow towards others"),
  writer ``j`` writes 1 ("I started a write").

``write(v)`` by process ``j``  (paper's ``write`` procedure)::

    for i ≠ j: A[i][j] := 1      # notify all potential scanners
    V[j] := v                     # then publish the value

``scan`` by process ``i``  (paper's ``scan`` function)::

    L: for j ≠ i: A[i][j] := 0    # re-arm the handshakes
       collect V twice
       collect A[i][*]
       if any arrow is 1, or the two collects differ: goto L
       return the second collect

If the termination condition holds, no write whose value the scan returns
could have completed entirely before another returned write began — any such
writer would have turned an arrow and forced another round.  That yields the
snapshot property P2 (and P1/P3; see ``repro.snapshot.properties``).

The scan is not wait-free: an adversary that keeps scheduling fresh writes
can starve it (see ``ScanStarvingAdversary`` and experiment E7).  It is
*non-blocking* in the sense the paper needs: a scan only retries because
some new write completed, so in the consensus protocol — where every process
alternates scan and write — system-wide progress is guaranteed.

The arrow registers can optionally be built from the bounded two-writer
construction of :mod:`repro.registers.bloom` (``arrow_kind="bloom"``),
demonstrating boundedness all the way down to SWMR atomic cells
(ablation experiment E12).
"""

from __future__ import annotations

from typing import Any, Generator, TYPE_CHECKING

from repro.registers.atomic import AtomicRegister, RegisterArray
from repro.registers.base import MemoryAudit
from repro.registers.bloom import TwoWriterRegister
from repro.runtime.events import OpIntent
from repro.runtime.process import ProcessContext
from repro.snapshot.interface import ScannableMemory

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.simulation import Simulation

# V cell layout: (value, toggle, ghost_wseq)
_VALUE, _TOGGLE, _WSEQ = 0, 1, 2


class ScanRetriesExceeded(Exception):
    """A scan exceeded its configured retry limit (starvation guard)."""


class ArrowScannableMemory(ScannableMemory):
    """Bounded scannable memory from atomic registers + handshake arrows.

    Args:
        sim: owning simulation.
        name: object name (registers are named ``name.V[...]``, etc.).
        n: number of processes / slots.
        initial: initial value of every slot.
        arrow_kind: ``"atomic"`` (directly simulated 2-writer cells) or
            ``"bloom"`` (bounded construction from SWMR cells).
        audit: optional memory audit (ghost fields are excluded from it).
        max_rounds: optional scan retry limit (raises
            :class:`ScanRetriesExceeded`); ``None`` means retry forever.
    """

    def __init__(
        self,
        sim: "Simulation",
        name: str,
        n: int,
        initial: Any = None,
        arrow_kind: str = "atomic",
        audit: MemoryAudit | None = None,
        max_rounds: int | None = None,
        ghost: bool = True,
    ):
        self.name = name
        self.n = n
        self.initial = initial
        self.audit = audit
        self.max_rounds = max_rounds
        self.ghost = ghost
        self._attempts = 0
        self._toggle = [0] * n
        self._wseq = [0] * n
        self._last_written = [initial] * n
        self._scans = sim.metrics.counter("snapshot.scans", object=name)
        self._scan_rounds = sim.metrics.histogram("snapshot.scan_rounds", object=name)
        self._retries = sim.metrics.counter("snapshot.scan_retries", object=name)
        self._arrow_toggles = sim.metrics.counter("snapshot.arrow_toggles", object=name)
        self._writes = sim.metrics.counter("snapshot.writes", object=name)
        self._value_magnitude = sim.metrics.gauge(
            "memory.max_magnitude", register=f"{name}.V"
        )
        self.V = RegisterArray(sim, f"{name}.V", n, initial=(initial, 0, 0))
        self.A: list[list[Any]] = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                arrow_name = f"{name}.A[{i},{j}]"
                if arrow_kind == "atomic":
                    self.A[i][j] = AtomicRegister(
                        sim, arrow_name, initial=0, writers=[i, j], audit=audit
                    )
                elif arrow_kind == "bloom":
                    self.A[i][j] = TwoWriterRegister(
                        sim, arrow_name, writer0=i, writer1=j, initial=0, audit=audit
                    )
                else:
                    raise ValueError(f"unknown arrow_kind: {arrow_kind!r}")
        # Per-pid step tables, built once: every access a scan or write
        # makes, as ``(register, intent)`` pairs.  An atomic register's
        # access is one step, so the loops yield its prebuilt intent and
        # call ``load``/``store``; a bloom arrow takes several steps per
        # access, so its entry carries ``None`` and the loops delegate to
        # its ``read``/``write`` generator.
        self._v_regs = self.V.registers
        others = [[j for j in range(n) if j != i] for i in range(n)]
        # Row i: the arrows scanner i re-arms (value 0) and reads.
        self._arm = [
            [self._write_entry(self.A[i][j], i, 0) for j in others[i]] for i in range(n)
        ]
        self._arrow_reads = [
            [self._read_entry(self.A[i][j], i) for j in others[i]] for i in range(n)
        ]
        # Column i: the arrows writer i raises (value 1), A[j][i].
        self._raise = [
            [self._write_entry(self.A[j][i], i, 1) for j in others[i]] for i in range(n)
        ]
        # The V registers scanner i collects, twice per round.
        self._collect = [
            [(self._v_regs[j], self._v_regs[j].read_intent(i)) for j in others[i]]
            for i in range(n)
        ]
        sim.register_shared(name, self)

    @staticmethod
    def _write_entry(reg, pid: int, value: Any) -> tuple[Any, OpIntent | None]:
        if not isinstance(reg, AtomicRegister):
            return reg, None
        reg.check_writer(pid)
        return reg, OpIntent(pid, "write", reg.name, value)

    @staticmethod
    def _read_entry(reg, pid: int) -> tuple[Any, OpIntent | None]:
        if not isinstance(reg, AtomicRegister):
            return reg, None
        return reg, reg.read_intent(pid)

    # -- operations ----------------------------------------------------------

    def write(self, ctx: ProcessContext, value: Any) -> Generator[OpIntent, None, None]:
        """Set all arrows towards potential scanners, then publish the value."""
        i = ctx.pid
        span = ctx.begin_span("write", self.name, value)
        self._writes.inc()
        arrow_toggles = self._arrow_toggles
        for reg, intent in self._raise[i]:
            if intent is None:
                yield from reg.write(ctx, 1)
            else:
                yield intent
                reg.store(ctx, 1)
            arrow_toggles.inc()
        self._toggle[i] ^= 1
        self._wseq[i] += 1
        span.meta["wseq"] = self._wseq[i]
        cell = (value, self._toggle[i], self._wseq[i] if self.ghost else 0)
        if self.audit is not None:
            # Audit the algorithmic fields only; the ghost wseq is
            # verification instrumentation, not protocol memory.
            self._value_magnitude.set_max(
                self.audit.observe(f"{self.name}.V[{i}]", (value, self._toggle[i]))
            )
        vreg = self._v_regs[i]
        yield OpIntent(i, "write", vreg.name, cell)
        vreg.store(ctx, cell)
        self._last_written[i] = value
        ctx.end_span(span)

    def scan(self, ctx: ProcessContext) -> Generator[OpIntent, None, list]:
        """Double-collect with handshake arrows; retries until clean."""
        i = ctx.pid
        span = ctx.begin_span("scan", self.name)
        self._scans.inc()
        arm = self._arm[i]
        collect = self._collect[i]
        arrow_reads = self._arrow_reads[i]
        arrow_toggles = self._arrow_toggles
        max_rounds = self.max_rounds
        # Collect buffers live for one scan call and are cleared between
        # retry rounds (per-call, not per-instance: concurrent scans by
        # different pids each hold their own).
        first: list = []
        second: list = []
        arrows: list = []
        rounds = 0
        while True:
            rounds += 1
            self._attempts += 1
            if rounds > 1:
                self._retries.inc()
            if max_rounds is not None and rounds > max_rounds:
                raise ScanRetriesExceeded(
                    f"scan by {i} on {self.name} exceeded {max_rounds} rounds"
                )
            for reg, intent in arm:
                if intent is None:
                    yield from reg.write(ctx, 0)
                else:
                    yield intent
                    reg.store(ctx, 0)
                arrow_toggles.inc()
            first.clear()
            for reg, intent in collect:
                yield intent
                first.append(reg.load(ctx))
            second.clear()
            for reg, intent in collect:
                yield intent
                second.append(reg.load(ctx))
            arrows.clear()
            for reg, intent in arrow_reads:
                if intent is None:
                    arrows.append((yield from reg.read(ctx)))
                else:
                    yield intent
                    arrows.append(reg.load(ctx))
            clean = True
            for k in range(len(second)):
                f = first[k]
                s = second[k]
                if arrows[k] != 0 or f[_VALUE] != s[_VALUE] or f[_TOGGLE] != s[_TOGGLE]:
                    clean = False
                    break
            if clean:
                break
        self._scan_rounds.observe(rounds)
        view = []
        k = 0
        for j in range(self.n):
            if j == i:
                view.append(self._last_written[i])
            else:
                view.append(second[k][_VALUE])
                k += 1
        if ctx.recording:
            wseqs = []
            k = 0
            for j in range(self.n):
                if j == i:
                    wseqs.append(self._wseq[i] if self.ghost else 0)
                else:
                    wseqs.append(second[k][_WSEQ])
                    k += 1
            span.meta["wseqs"] = tuple(wseqs)
            span.meta["rounds"] = rounds
            ctx.end_span(span, tuple(view))
        return view

    # -- inspection ------------------------------------------------------------

    def peek_view(self) -> list:
        return [cell[_VALUE] for cell in self.V.peek_all()]

    def scan_attempts(self) -> int:
        return self._attempts
