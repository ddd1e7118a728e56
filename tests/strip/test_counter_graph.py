"""The decoder's per-pid decide and coin queries (``CounterGraph``).

``near_pids(i)`` lists the pids within distance < K of i, whose
disagreement blocks i's decide test; ``coin_sources(i)`` lists i's coin
contributors ``(j, w(j, i))``, the edges j -> i of weight < K.  Both are
held to their definitions from ``dists_from`` and ``W`` on random rows,
and on the token game's states to the game's positions directly.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.strip import EdgeCounters, ShrunkenTokenGame
from repro.strip.distance_graph import PositiveCycleError
from repro.strip.edge_counters import CounterGraph, IllFormedCounters, cycle_size


def assert_queries_match_definitions(decoder):
    n, K, W = decoder.n, decoder.K, decoder.W
    for i in range(n):
        sources = tuple(
            (j, W[j][i])
            for j in range(n)
            if j != i and W[j][i] is not None and W[j][i] < K
        )
        assert decoder.coin_sources(i) == sources
        try:
            dists = decoder.dists_from(i)
        except PositiveCycleError:
            with pytest.raises(PositiveCycleError):
                decoder.near_pids(i)
            continue
        assert decoder.near_pids(i) == tuple(k for k in range(n) if dists[k] < K)


plays = st.tuples(
    st.integers(min_value=2, max_value=5),  # processes
    st.integers(min_value=2, max_value=3),  # K (the protocol needs >= 2)
    st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=60),
)


@settings(max_examples=120, deadline=None)
@given(plays)
def test_queries_read_the_token_game_positions(play):
    n, K, raw_moves = play
    game = ShrunkenTokenGame(n, K)
    counters = EdgeCounters(n, K)
    for raw in raw_moves:
        mover = raw % n
        game.move_token(mover)
        counters.inc(mover)
        decoder = CounterGraph(counters.rows, K)
        assert_queries_match_definitions(decoder)
        r = game.positions
        for i in range(n):
            # No path leaves i towards a pid ahead of it: distance -inf.
            assert decoder.near_pids(i) == tuple(
                k for k in range(n) if r[k] > r[i] or r[i] - r[k] < K
            )
            assert decoder.coin_sources(i) == tuple(
                (j, r[j] - r[i]) for j in range(n) if j != i and 0 <= r[j] - r[i] < K
            )


@st.composite
def random_rows(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    K = draw(st.integers(min_value=2, max_value=3))
    counter = st.integers(min_value=0, max_value=cycle_size(K) - 1)
    row = st.lists(counter, min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    return rows, K


@settings(max_examples=300, deadline=None)
@given(random_rows())
def test_queries_match_their_definitions_on_random_rows(case):
    rows, K = case
    try:
        decoder = CounterGraph(rows, K)
    except IllFormedCounters:
        assume(False)
    assert_queries_match_definitions(decoder)


def test_near_pids_raises_on_a_positive_cycle_and_caches_nothing():
    # The positive cycle 0 -> 1 -> 2 -> 0 of tests/batch/test_engine.py.
    cycle = ((0, 1, 0), (0, 0, 1), (1, 0, 0))
    decoder = CounterGraph(cycle, 2)
    message = "positive cycle detected: not a legal distance graph"
    for i in range(3):
        for _ in range(2):  # a retry meets the cycle again
            with pytest.raises(PositiveCycleError) as error:
                decoder.near_pids(i)
            assert str(error.value) == message
            assert isinstance(error.value, ValueError)
    # The coin query reads no distance: each edge has weight 1 < K.
    assert [decoder.coin_sources(i) for i in range(3)] == [
        ((2, 1),),
        ((0, 1),),
        ((1, 1),),
    ]
