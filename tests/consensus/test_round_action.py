"""``round_action`` (paper lines 2–6) against the rule it replaced.

The reference below is the earlier body, kept verbatim: it scans
``dists_from(i)`` for the decide test and collects the leaders'
preferences into ``agreed_value``.  The shared rule must return the same
action and value on every input, or raise the same error.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.consensus.ads import ADOPT, CONFLICT, DECIDE, WITHDRAW, round_action
from repro.consensus.interface import BOTTOM, agreed_value
from repro.strip import EdgeCounters
from repro.strip.distance_graph import PositiveCycleError
from repro.strip.edge_counters import CounterGraph, IllFormedCounters, cycle_size


def reference_round_action(i, prefs, graph, K):
    pref = prefs[i]
    if pref is not BOTTOM and i in graph.leaders:
        for p, d in zip(prefs, graph.dists_from(i)):
            if p != pref and d < K:
                break
        else:
            return DECIDE, pref
    value = agreed_value([prefs[lead] for lead in graph.leaders])
    if value is not None:
        return ADOPT, value
    if pref is not BOTTOM:
        return WITHDRAW, None
    return CONFLICT, None


def outcome(rule, *args):
    try:
        return rule(*args)
    except ValueError as error:
        return type(error), str(error)


@st.composite
def legal_rows(draw, n, K):
    """Edge rows of a token-game play: a legal view."""
    counters = EdgeCounters(n, K)
    for mover in draw(st.lists(st.integers(0, n - 1), max_size=30)):
        counters.inc(mover)
    return counters.rows


@st.composite
def any_rows(draw, n, K):
    counter = st.integers(min_value=0, max_value=cycle_size(K) - 1)
    row = st.lists(counter, min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


@st.composite
def cases(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    K = draw(st.integers(min_value=2, max_value=3))
    rows = draw(st.one_of(legal_rows(n, K), any_rows(n, K)))
    prefs = draw(st.lists(st.sampled_from((0, 1, BOTTOM)), min_size=n, max_size=n))
    i = draw(st.integers(min_value=0, max_value=n - 1))
    return rows, K, prefs, i


@settings(max_examples=500, deadline=None)
@given(cases())
def test_round_action_matches_the_reference_rule(case):
    rows, K, prefs, i = case
    try:
        CounterGraph(rows, K)
    except IllFormedCounters:
        assume(False)
    # Fresh decoders: neither rule sees the other's cached queries.
    expected = outcome(reference_round_action, i, prefs, CounterGraph(rows, K), K)
    assert outcome(round_action, i, prefs, CounterGraph(rows, K)) == expected


def test_every_action_and_the_cycle_error_are_reached():
    """The sampled space covers each branch of the rule."""
    tied = CounterGraph(((0, 0), (0, 0)), 2)
    ahead = CounterGraph(((0, 2), (0, 0)), 2)  # 0 leads 1 by K
    cycle = CounterGraph(((0, 1, 0), (0, 0, 1), (1, 0, 0)), 2)
    checks = [
        (0, [1, 0], ahead, (DECIDE, 1)),
        (1, [1, 1], tied, (DECIDE, 1)),
        (1, [1, 0], ahead, (ADOPT, 1)),
        (0, [1, 0], tied, (WITHDRAW, None)),
        (0, [BOTTOM, 1], tied, (CONFLICT, None)),
        (1, [BOTTOM, BOTTOM], ahead, (CONFLICT, None)),
        (0, [1, 1, 0], cycle, (WITHDRAW, None)),  # no leaders, no decide test
    ]
    for i, prefs, graph, expected in checks:
        assert round_action(i, prefs, graph) == expected
        assert reference_round_action(i, prefs, graph, graph.K) == expected
    # Leader 0 reaches the positive cycle 1 -> 2 -> 3 -> 1: its decide
    # test raises.
    rows = ((0, 1, 1, 1), (0, 0, 1, 5), (0, 0, 0, 1), (0, 0, 0, 0))
    prefs = [1, 1, 1, 1]
    new = outcome(round_action, 0, prefs, CounterGraph(rows, 2))
    old = outcome(reference_round_action, 0, prefs, CounterGraph(rows, 2), 2)
    message = "positive cycle detected: not a legal distance graph"
    assert new == old == (PositiveCycleError, message)
