"""Directly simulated atomic registers.

In the interleaving simulator an atomic register is simply a cell whose read
and write each take effect at a single scheduling point, so atomicity holds
by construction.  These cells are the default substrate for the higher-level
constructions (the paper assumes atomic SWMR registers ``V_i`` and 2W2R
arrow registers ``A_ij``; bounded constructions of those from weaker
primitives live in :mod:`repro.registers.bloom` and are exercised separately
so that the protocol benchmarks stay fast).

Writer/reader restrictions are *checked*: a SWMR register raises if a
process other than its owner writes it, which catches protocol wiring bugs
early.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, TYPE_CHECKING

from repro.registers.base import MemoryAudit
from repro.runtime.events import OpIntent
from repro.runtime.process import ProcessContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.simulation import Simulation


class AtomicRegister:
    """A simulated atomic register.

    Args:
        sim: owning simulation (the register registers itself under ``name``).
        name: unique name, used in traces and adversary introspection.
        initial: initial value.
        writers: pids allowed to write, or ``None`` for anyone (MWMR).
        audit: optional shared :class:`MemoryAudit` to report writes to.
    """

    __slots__ = (
        "sim",
        "name",
        "_value",
        "_prev_value",
        "writers",
        "audit",
        "_reads",
        "_writes",
        "_magnitude",
        "_read_intents",
    )

    def __init__(
        self,
        sim: "Simulation",
        name: str,
        initial: Any = None,
        writers: Iterable[int] | None = None,
        audit: MemoryAudit | None = None,
    ):
        self.sim = sim
        self.name = name
        self._value = initial
        # Previous value, kept for the fault injector's stale reads
        # (regular-register semantics: a read may return the overwritten
        # value).  Mirrors the write history one step deep.
        self._prev_value = initial
        self.writers = frozenset(writers) if writers is not None else None
        self.audit = audit
        self._reads = sim.metrics.counter("registers.reads", register=name)
        self._writes = sim.metrics.counter("registers.writes", register=name)
        # Max-value-held gauges subsume the E6 memory audit for audited
        # registers; the audit's measurement is reused, never recomputed.
        self._magnitude = sim.metrics.gauge("memory.max_magnitude", register=name)
        self._read_intents: dict[int, OpIntent] = {}
        if audit is not None:
            self._magnitude.set_max(audit.observe(name, initial))
        sim.register_shared(name, self)

    def peek(self) -> Any:
        """Adversary/test access to the current value (not a process step)."""
        return self._value

    def poke(self, value: Any) -> None:
        """Test-only direct mutation (not a process step)."""
        self._prev_value = self._value
        self._value = value

    # -- one atomic access, split into its intent and its effect -------------
    #
    # A shared object that performs a single-step access inline yields
    # ``read_intent(pid)`` (or a write intent it built once, after
    # ``check_writer``) and then calls ``load`` / ``store``; ``read`` and
    # ``write`` below are the same two halves as one generator.  A process
    # step changes or observes the register only in the effect halves, so
    # both forms inject the same faults, count the same accesses and record
    # the same events.

    def read_intent(self, pid: int) -> OpIntent:
        """The intent of a read by ``pid``.

        Read intents carry no payload, so one immutable intent per reader
        pid serves every read of this register (reads dominate the step
        mix — a scan is n reads per round).
        """
        intent = self._read_intents.get(pid)
        if intent is None:
            intent = self._read_intents[pid] = OpIntent(pid, "read", self.name)
        return intent

    def check_writer(self, pid: int) -> None:
        """Raise :class:`PermissionError` unless ``pid`` may write here."""
        if self.writers is not None and pid not in self.writers:
            raise PermissionError(
                f"process {pid} may not write register {self.name} "
                f"(writers: {sorted(self.writers)})"
            )

    def load(self, ctx: ProcessContext) -> Any:
        """The effect of a read, at the step its intent was granted.

        With a fault injector installed on the simulation, the *returned*
        value may be stale (the previous write's value) — the register's
        actual content is untouched, and the recorded event carries what
        the process really saw, so trace checkers judge the faulty
        behaviour, not the intent.
        """
        value = self._value
        injector = self.sim.faults
        if injector is not None:
            value = injector.on_read(
                self.sim.step_count, ctx.pid, self.name, value, self._prev_value
            )
        self._reads.inc()
        if ctx.recording:
            ctx.record("read", self.name, value)
        return value

    def store(self, ctx: ProcessContext, value: Any) -> None:
        """The effect of a write, at the step its intent was granted.

        The fault injector may drop the write (the cell keeps its old
        value) or corrupt the stored value.  Either way the writer believes
        it wrote ``value`` — the event records the intent, while the audit
        and the max-value gauges observe what actually landed (a corrupted
        value that blows the E6 bound is meant to be visible there).
        """
        stored = value
        lost = False
        injector = self.sim.faults
        if injector is not None:
            lost, stored = injector.on_write(
                self.sim.step_count, ctx.pid, self.name, value
            )
        self._writes.inc()
        if not lost:
            self._prev_value = self._value
            self._value = stored
            if self.audit is not None:
                self._magnitude.set_max(self.audit.observe(self.name, stored))
        if ctx.recording:
            ctx.record("write", self.name, value)

    def read(self, ctx: ProcessContext) -> Generator[OpIntent, None, Any]:
        """Atomic read (one scheduling point); see :meth:`load`."""
        yield self.read_intent(ctx.pid)
        return self.load(ctx)

    def write(self, ctx: ProcessContext, value: Any) -> Generator[OpIntent, None, None]:
        """Atomic write (one scheduling point); see :meth:`store`."""
        self.check_writer(ctx.pid)
        yield OpIntent(ctx.pid, "write", self.name, value)
        self.store(ctx, value)


class RegisterArray:
    """A family of registers ``name[0] .. name[n-1]``.

    By default register ``i`` is single-writer (owned by pid ``i``), the
    layout used for the ``V_i`` registers of the scannable memory.
    """

    __slots__ = ("name", "registers")

    def __init__(
        self,
        sim: "Simulation",
        name: str,
        n: int,
        initial: Any = None,
        single_writer: bool = True,
        audit: MemoryAudit | None = None,
    ):
        self.name = name
        self.registers = [
            AtomicRegister(
                sim,
                f"{name}[{i}]",
                initial=initial,
                writers=[i] if single_writer else None,
                audit=audit,
            )
            for i in range(n)
        ]

    def __getitem__(self, index: int) -> AtomicRegister:
        return self.registers[index]

    def __len__(self) -> int:
        return len(self.registers)

    def peek_all(self) -> list[Any]:
        return [r.peek() for r in self.registers]
