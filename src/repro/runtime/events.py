"""Event records produced by the simulator.

Three kinds of records are used throughout the library:

- :class:`OpIntent` — the *pending* atomic operation of a process, i.e. the
  value the process generator yielded and that will take effect the next time
  the scheduler resumes that process.  Strong adaptive adversaries inspect
  intents when choosing whom to schedule.
- :class:`OpEvent` — a single *atomic* operation that took effect at a given
  global step.  The sequence of these events is the global-time model of the
  paper: operation ``a`` precedes ``b`` iff ``a.step < b.step``.
- :class:`OpSpan` — a *high-level* operation execution (e.g. one ``scan`` of
  the scannable memory) spanning many atomic steps.  Spans carry invocation
  and response step indices and are what the paper's "precedes" / "can
  affect" / "potentially coexists" relations are defined over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, slots=True)
class OpIntent:
    """The next atomic operation a process will perform when scheduled.

    Every atomic step yields one before its register access takes effect.
    Intents with a fixed payload (reads, the arrow snapshot's arrow writes)
    are built once and reused; the rest are allocated per step, so the
    class is slotted.

    Attributes:
        pid: the process about to act.
        kind: operation kind, e.g. ``"read"``, ``"write"``, ``"flip"``.
        target: name of the shared object / register acted on.
        payload: operation argument (value to be written, etc.), or ``None``.
    """

    pid: int
    kind: str
    target: str
    payload: Any = None


@dataclass(frozen=True, slots=True)
class OpEvent:
    """One atomic operation that took effect at global step ``step``."""

    step: int
    pid: int
    kind: str
    target: str
    value: Any = None

    def __str__(self) -> str:
        return f"[{self.step}] p{self.pid} {self.kind} {self.target} = {self.value!r}"


@dataclass(slots=True)
class OpSpan:
    """A high-level operation execution bracketing many atomic steps.

    A span is *open* until :attr:`response_step` is set.  The paper's
    relations over operation executions are derived from spans:

    - ``a`` *precedes* ``b``  iff ``a.response_step < b.invoke_step``;
    - ``a`` *potentially coexists* with ``b`` (Definition 2.1 requires, in
      particular) that ``a`` does not entirely follow ``b`` and is not
      separated from ``b`` by a full later operation of the same process.
    """

    span_id: int
    pid: int
    kind: str
    target: str
    invoke_step: int | None
    response_step: int | None = None
    argument: Any = None
    result: Any = None
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def is_open(self) -> bool:
        return self.response_step is None

    def precedes(self, other: "OpSpan") -> bool:
        """Real-time order: this span completed before ``other`` began.

        A span's invocation instant is stamped at its *first atomic
        operation* (not at generator creation), so an operation a process
        has merely queued up does not yet overlap anything.
        """
        if self.response_step is None or other.invoke_step is None:
            return False
        return self.response_step < other.invoke_step

    def overlaps(self, other: "OpSpan") -> bool:
        """Neither span precedes the other (they share a global instant)."""
        return not self.precedes(other) and not other.precedes(self)

    def __str__(self) -> str:
        end = "..." if self.response_step is None else str(self.response_step)
        return (
            f"p{self.pid} {self.kind}({self.argument!r}) on {self.target} "
            f"[{self.invoke_step}, {end}] -> {self.result!r}"
        )
