"""Linearizability checking for register histories.

A register history is a set of read/write operation executions with
real-time invocation/response instants.  The history is *linearizable*
(atomic, axioms B1–B5 of [L86c] / the definition of [H88]) iff there is a
total order of the operations that (a) extends the real-time precedence
order and (b) is legal for a register: every read returns the value of the
most recent preceding write (or the initial value if none).

The checker is a Wing–Gong style backtracking search with memoisation on
``(set of linearized ops, current register value)``.  It is exponential in
the worst case but comfortably handles the bounded scenarios and randomized
schedules used to validate the register constructions in the tests.  The
search itself, :func:`find_linearization`, takes the object's step
function, so :mod:`repro.universal.linearizability` runs the same search
over any sequential spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Sequence

from repro.runtime.events import OpSpan

READ = "read"
WRITE = "write"


@dataclass(frozen=True)
class HistoryOp:
    """One operation execution in a register history."""

    op_id: int
    pid: int
    kind: str  # "read" or "write"
    value: Any  # value written, or value returned by the read
    invoke: int
    response: int

    def precedes(self, other: "HistoryOp") -> bool:
        return self.response < other.invoke


def history_from_spans(spans: Iterable[OpSpan]) -> list[HistoryOp]:
    """Convert completed trace spans of one register into a history.

    Write spans use ``span.argument`` as the value; read spans use
    ``span.result``.
    """
    ops = []
    for span in spans:
        if span.is_open:
            continue
        if span.kind not in (READ, WRITE):
            raise ValueError(f"not a register span: {span.kind}")
        value = span.argument if span.kind == WRITE else span.result
        ops.append(
            HistoryOp(
                op_id=span.span_id,
                pid=span.pid,
                kind=span.kind,
                value=value,
                invoke=span.invoke_step,
                response=span.response_step,  # type: ignore[arg-type]
            )
        )
    return ops


def find_linearization(
    ops: Sequence[Any],
    initial: Any,
    step: Callable[[Any, Any], tuple[bool, Any]],
) -> list[int] | None:
    """Wing–Gong search: a witness linearization (op_ids in order), or ``None``.

    ``ops`` have an ``op_id`` and a real-time ``precedes(other)``.
    ``step(state, op)`` returns whether ``op`` may take effect in
    ``state`` and the state it leaves.  The search tries ops in list
    order and memoises failed ``(set of linearized ops, state)`` pairs;
    states must be hashable, falling back to ``repr`` otherwise.
    """
    ops = list(ops)
    total = len(ops)
    if total == 0:
        return []
    # must_precede[i] = bitmask of ops that must come before op i.
    must_precede = [0] * total
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            if i != j and a.precedes(b):
                must_precede[j] |= 1 << i

    full_mask = (1 << total) - 1
    failed: set[tuple[int, Hashable]] = set()
    order: list[int] = []

    def state_key(state: Any) -> Hashable:
        try:
            hash(state)
            return state
        except TypeError:
            return repr(state)

    def search(done_mask: int, state: Any) -> bool:
        if done_mask == full_mask:
            return True
        key = (done_mask, state_key(state))
        if key in failed:
            return False
        for i, op in enumerate(ops):
            bit = 1 << i
            if done_mask & bit or must_precede[i] & ~done_mask:
                continue  # linearized already, or a predecessor is not yet
            legal, after = step(state, op)
            if not legal:
                continue
            order.append(op.op_id)
            if search(done_mask | bit, after):
                return True
            order.pop()
        failed.add(key)
        return False

    return list(order) if search(0, initial) else None


def _register_step(value: Any, op: HistoryOp) -> tuple[bool, Any]:
    """A read must return the current value; a write replaces it."""
    if op.kind == READ:
        return op.value == value, value
    return True, op.value


def check_register_history(
    ops: Sequence[HistoryOp], initial: Any = None
) -> list[int] | None:
    """Return a witness linearization (list of op_ids), or ``None``.

    ``None`` means the history is *not* linearizable with respect to atomic
    single-register semantics and the given initial value.
    """
    return find_linearization(ops, initial, _register_step)
