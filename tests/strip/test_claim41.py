"""Property-based validation of Claim 4.1 (the heart of §4).

For any play of the game, three state machines must stay in lock-step:

1. the normalized shrunken token game (positions in [0, K·n]);
2. the sequential distance graph under ``inc(i, G)``;
3. the mod-3K edge-counter representation under ``inc_counters``.

After every single move, the distance graphs derived from all three must be
identical, and the §4.2 invariants must hold.  The shared decoder both
interpreters use (``CounterGraph``) is also held to the game's positions
directly, an oracle that runs no longest-path relaxation.
"""

from hypothesis import given, settings, strategies as st

from repro.strip import (
    DistanceGraph,
    EdgeCounters,
    ShrunkenTokenGame,
    check_graph_invariants,
)
from repro.strip.edge_counters import CounterGraph

NEG_INF = float("-inf")


def assert_decoder_matches_positions(rows, positions, K):
    """Property 5 and the leader set, read off the game: ``dist(i, j)`` is
    ``r_i - r_j`` when i is at or ahead of j, and no path exists when i
    is behind; the leaders hold the top position."""
    decoder = CounterGraph(rows, K)
    n = len(positions)
    for i in range(n):
        dists_from, dists_to = decoder.dists_from(i), decoder.dists_to(i)
        for j in range(n):
            gap = positions[i] - positions[j]
            assert dists_from[j] == (gap if gap >= 0 else NEG_INF), (i, j, positions)
            assert dists_to[j] == (-gap if gap <= 0 else NEG_INF), (i, j, positions)
    top = max(positions)
    assert decoder.leaders == tuple(i for i, p in enumerate(positions) if p == top)


plays = st.tuples(
    st.integers(min_value=2, max_value=5),  # processes
    st.integers(min_value=2, max_value=3),  # K (the protocol needs >= 2)
    st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=60),
)


@settings(max_examples=120, deadline=None)
@given(plays)
def test_game_graph_and_counters_stay_equivalent(play):
    n, K, raw_moves = play
    game = ShrunkenTokenGame(n, K)
    graph = DistanceGraph.initial(n, K)
    counters = EdgeCounters(n, K)
    for raw in raw_moves:
        mover = raw % n
        game.move_token(mover)
        graph.inc(mover)
        counters.inc(mover)
        expected = DistanceGraph.from_positions(game.positions, K)
        assert graph == expected, (
            f"sequential inc diverged after move {mover}: "
            f"positions={game.positions}"
        )
        assert counters.graph() == expected, (
            f"counter inc diverged after move {mover}: "
            f"positions={game.positions}"
        )
        assert_decoder_matches_positions(counters.rows, game.positions, K)


@settings(max_examples=60, deadline=None)
@given(plays)
def test_graph_invariants_hold_along_any_play(play):
    n, K, raw_moves = play
    graph = DistanceGraph.initial(n, K)
    for raw in raw_moves:
        graph.inc(raw % n)
        assert check_graph_invariants(graph) == []


@settings(max_examples=60, deadline=None)
@given(plays)
def test_leaders_match_game_maxima(play):
    n, K, raw_moves = play
    game = ShrunkenTokenGame(n, K)
    graph = DistanceGraph.initial(n, K)
    for raw in raw_moves:
        mover = raw % n
        game.move_token(mover)
        graph.inc(mover)
        top = max(game.positions)
        expected_leaders = sorted(
            i for i, p in enumerate(game.positions) if p == top
        )
        assert graph.leaders() == expected_leaders


@settings(max_examples=60, deadline=None)
@given(plays)
def test_dist_equals_position_difference(play):
    """Property 5: dist(i, j) in the graph = r_i - r_j in the game."""
    n, K, raw_moves = play
    game = ShrunkenTokenGame(n, K)
    graph = DistanceGraph.initial(n, K)
    for raw in raw_moves:
        mover = raw % n
        game.move_token(mover)
        graph.inc(mover)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = graph.dist(i, j)
            if d != float("-inf"):
                assert d == game.positions[i] - game.positions[j]
