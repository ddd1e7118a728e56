"""Linearizability checking for arbitrary sequential objects.

Runs the register checker's Wing–Gong search
(:mod:`repro.registers.linearizability`) over any
:class:`~repro.universal.spec.SequentialSpec`: a history of operation
executions (invocation/response instants, operation, response) is
linearizable iff some total order extends the real-time precedence order
and replays through the spec producing exactly the recorded responses.

Used to validate the universal construction from the *outside*: the agreed
log is its internal witness, but this checker needs no access to it — only
the invocation/response spans any client could observe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.registers.linearizability import find_linearization
from repro.runtime.events import OpSpan
from repro.universal.spec import Operation, SequentialSpec


@dataclass(frozen=True)
class ObjectOp:
    """One operation execution on a shared object."""

    op_id: int
    pid: int
    operation: Operation
    response: Any
    invoke: int
    respond: int

    def precedes(self, other: "ObjectOp") -> bool:
        return self.respond < other.invoke


def object_history_from_spans(spans: Iterable[OpSpan]) -> list[ObjectOp]:
    """Convert completed ``invoke`` spans into a checkable history."""
    history = []
    for span in spans:
        if span.is_open or span.invoke_step is None:
            continue
        history.append(
            ObjectOp(
                op_id=span.span_id,
                pid=span.pid,
                operation=tuple(span.argument),
                response=span.result,
                invoke=span.invoke_step,
                respond=span.response_step,  # type: ignore[arg-type]
            )
        )
    return history


def check_object_history(
    spec: SequentialSpec, ops: Sequence[ObjectOp]
) -> list[int] | None:
    """Return a witness linearization (op_ids in order), or ``None``.

    The register checker's Wing–Gong search
    (:func:`~repro.registers.linearizability.find_linearization`) over
    the spec's states: an operation may take effect when the spec
    returns its recorded response.  Spec states must be hashable values
    (the provided specs use tuples/ints), falling back to ``repr``
    otherwise.
    """

    def step(state: Any, op: ObjectOp) -> tuple[bool, Any]:
        after, response = spec.apply(state, op.operation)
        return response == op.response, after

    return find_linearization(ops, spec.initial_state(), step)
