"""The one Wing–Gong search behind the register and the object checkers.

``check_register_history`` and ``check_object_history`` are thin adapters
over :func:`repro.registers.linearizability.find_linearization`.  The two
searches they replaced are kept below, verbatim, as references: over
drawn register, queue, stack and counter histories the adapters must
return exactly the reference witness (the same op_ids in the same order),
or ``None`` exactly when the reference does.
"""

from typing import Any, Hashable

from hypothesis import given, settings, strategies as st

from repro.registers.linearizability import (
    READ,
    WRITE,
    HistoryOp,
    check_register_history,
)
from repro.universal import CounterSpec, QueueSpec, StackSpec
from repro.universal.linearizability import ObjectOp, check_object_history


def reference_register_search(ops, initial=None):
    """The register checker's own search, as it was before the merge."""
    ops = list(ops)
    total = len(ops)
    if total == 0:
        return []
    index_of = {op.op_id: i for i, op in enumerate(ops)}
    # precedes[i] = bitmask of ops that must come before op i.
    must_precede = [0] * total
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            if i != j and a.precedes(b):
                must_precede[j] |= 1 << i

    full_mask = (1 << total) - 1
    failed: set[tuple[int, Hashable]] = set()

    def value_key(value: Any) -> Hashable:
        try:
            hash(value)
            return value
        except TypeError:
            return repr(value)

    order: list[int] = []

    def search(done_mask: int, current: Any) -> bool:
        if done_mask == full_mask:
            return True
        key = (done_mask, value_key(current))
        if key in failed:
            return False
        for i, op in enumerate(ops):
            bit = 1 << i
            if done_mask & bit:
                continue
            if must_precede[i] & ~done_mask:
                continue  # a real-time predecessor is not yet linearized
            if op.kind == READ:
                if op.value != current:
                    continue
                order.append(op.op_id)
                if search(done_mask | bit, current):
                    return True
                order.pop()
            else:
                order.append(op.op_id)
                if search(done_mask | bit, op.value):
                    return True
                order.pop()
        failed.add(key)
        return False

    if search(0, initial):
        assert len(order) == total and {index_of[o] for o in order} == set(range(total))
        return list(order)
    return None


def reference_object_search(spec, ops):
    """The object checker's own search, as it was before the merge."""
    ops = list(ops)
    total = len(ops)
    if total == 0:
        return []
    must_precede = [0] * total
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            if i != j and a.precedes(b):
                must_precede[j] |= 1 << i

    full_mask = (1 << total) - 1
    failed: set[tuple[int, Any]] = set()
    order: list[int] = []

    def state_key(state: Any):
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
                continue
            new_state, response = spec.apply(state, op.operation)
            if response != op.response:
                continue
            order.append(op.op_id)
            if search(done_mask | bit, new_state):
                return True
            order.pop()
        failed.add(key)
        return False

    if search(0, spec.initial_state()):
        return list(order)
    return None


#: Register values: small ints (hashable) and one-element lists, which
#: send the memo key through its ``repr`` fallback.
VALUES = st.one_of(st.integers(0, 2), st.lists(st.integers(0, 1), max_size=1))


@st.composite
def intervals(draw, count):
    """``count`` (invoke, response) pairs that overlap at random."""
    spans = []
    for _ in range(count):
        invoke = draw(st.integers(0, 12))
        spans.append((invoke, invoke + draw(st.integers(0, 6))))
    return spans


@st.composite
def register_histories(draw):
    """Reads return what list order would make them read, except the
    reads drawn as stale, so both verdicts come up often."""
    count = draw(st.integers(0, 8))
    initial = draw(st.one_of(st.none(), VALUES))
    ids = draw(st.permutations(range(count)))
    ops, current = [], initial
    for op_id, (invoke, response) in zip(ids, draw(intervals(count))):
        kind = draw(st.sampled_from((READ, WRITE)))
        if kind == WRITE:
            current = draw(VALUES)
            value = current
        else:
            value = draw(VALUES) if draw(st.booleans()) else current
        ops.append(HistoryOp(op_id, op_id % 3, kind, value, invoke, response))
    return ops, initial


SPECS = {
    "queue": (QueueSpec(), (("enq", 0), ("enq", 1), ("deq",))),
    "stack": (StackSpec(), (("push", 0), ("push", 1), ("pop",))),
    "counter": (CounterSpec(), (("add", 1), ("add", 2), ("read",))),
}


@st.composite
def object_histories(draw, name):
    """Responses replay list order through the spec, except the ones
    drawn as wrong."""
    spec, operations = SPECS[name]
    count = draw(st.integers(0, 8))
    ids = draw(st.permutations(range(count)))
    ops, state = [], spec.initial_state()
    for op_id, (invoke, respond) in zip(ids, draw(intervals(count))):
        operation = draw(st.sampled_from(operations))
        state, response = spec.apply(state, operation)
        if draw(st.integers(0, 3)) == 0:
            response = draw(st.sampled_from((None, 0, 1, 2, 3)))
        ops.append(ObjectOp(op_id, op_id % 3, operation, response, invoke, respond))
    return spec, ops


@settings(max_examples=400, deadline=None)
@given(register_histories())
def test_register_checker_returns_the_reference_witness(history):
    ops, initial = history
    expected = reference_register_search(ops, initial)
    assert check_register_history(ops, initial) == expected


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SPECS)).flatmap(object_histories))
def test_object_checker_returns_the_reference_witness(history):
    spec, ops = history
    assert check_object_history(spec, ops) == reference_object_search(spec, ops)
