"""The distance graph ``G(S)`` (§4.2).

Given a state ``S`` of the (shrunken) token game, its distance graph is a
directed weighted graph on the n tokens with

- an edge ``(i, j)`` whenever ``r_i ≥ r_j`` (both directions iff tied), and
- weight ``w(i, j) = min(r_i - r_j, K)``.

Properties 1–5 of §4.2 follow (and are checked in
:mod:`repro.strip.invariants`): no positive cycles; path weights in
``[0, K·n]``; any two i→j paths have equal weight unless one contains a
saturated (weight-K) edge; and the *maximum*-weight path from i to j has
weight exactly ``r_i - r_j`` in the shrunken game.

The sequential move ``inc(i, G)`` — the graph image of ``move_token_i`` in
the normalized shrunken game (Claim 4.1) — is implemented here; the
concurrent bounded-counter representation lives in
:mod:`repro.strip.edge_counters`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

_NEG_INF = float("-inf")


class PositiveCycleError(ValueError):
    """A distance query met a positive cycle: not a legal distance graph."""


def longest_paths(
    edges: Sequence[tuple[int, int, int]], n: int, source: int, forward: bool
) -> list[float]:
    """Maximum path weights from ``source`` (``forward``) or into it.

    ``edges`` holds ``(u, v, w)`` triples for the edges ``u → v``.  The
    result's entry k is ``dist(source, k)`` going forward and
    ``dist(k, source)`` otherwise; ``-inf`` where no path exists.

    Longest-path relaxation; converges because a legal graph has no
    positive cycles (property 2), so cycles never improve a path.  Legal
    graphs converge within n-1 changing rounds (simple paths have at most
    n-1 edges and zero cycles never improve anything), so round n is
    always quiet; a positive cycle keeps changing and raises
    :class:`PositiveCycleError`.
    """
    if not forward:
        edges = [(v, u, w) for u, v, w in edges]
    dist: list[float] = [_NEG_INF] * n
    dist[source] = 0
    for _ in range(n + 1):
        changed = False
        for u, v, w in edges:
            du = dist[u]
            if du != _NEG_INF and du + w > dist[v]:
                dist[v] = du + w
                changed = True
        if not changed:
            return dist
    raise PositiveCycleError("positive cycle detected: not a legal distance graph")


class DistanceGraph:
    """Directed weighted graph over n tokens, weights in ``{0..K}``."""

    def __init__(self, n: int, K: int):
        if K < 1:
            raise ValueError("K must be >= 1")
        self.n = n
        self.K = K
        # weights[(i, j)] = w(i, j) for present edges only.
        self.weights: dict[tuple[int, int], int] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_positions(cls, positions: Sequence[int], K: int) -> "DistanceGraph":
        """``G(S)`` for a game state ``S``."""
        graph = cls(len(positions), K)
        for i in range(graph.n):
            for j in range(graph.n):
                if i != j and positions[i] >= positions[j]:
                    graph.weights[(i, j)] = min(positions[i] - positions[j], K)
        return graph

    @classmethod
    def initial(cls, n: int, K: int) -> "DistanceGraph":
        """All tokens tied at 0: every pair carries two weight-0 edges."""
        return cls.from_positions([0] * n, K)

    def copy(self) -> "DistanceGraph":
        clone = DistanceGraph(self.n, self.K)
        clone.weights = dict(self.weights)
        return clone

    # -- basic queries ---------------------------------------------------------

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.weights

    def weight(self, i: int, j: int) -> int:
        return self.weights[(i, j)]

    def edges(self) -> Iterable[tuple[int, int, int]]:
        for (i, j), w in sorted(self.weights.items()):
            yield i, j, w

    def successors(self, i: int) -> list[int]:
        return [j for (a, j) in self.weights if a == i]

    # -- distances ----------------------------------------------------------------

    def all_dists_to(self, target: int) -> list[float]:
        """``dist(k, target)`` for every k: maximum path weight into target.

        Unreachable sources get ``-inf``; raises
        :class:`PositiveCycleError` on a positive cycle (see
        :func:`longest_paths`).
        """
        return longest_paths(list(self.edges()), self.n, target, forward=False)

    def dist(self, i: int, j: int) -> float:
        """``dist(i, j)``: maximum weight over directed paths i → j."""
        return self.all_dists_to(j)[i]

    def all_dists_from(self, source: int) -> list[float]:
        """``dist(source, k)`` for every k (same relaxation, outgoing)."""
        return longest_paths(list(self.edges()), self.n, source, forward=True)

    def leaders(self) -> list[int]:
        """Processes that dominate everyone: ``(i, j) ∈ G`` for all j.

        Ascending pids.  Edges join distinct tokens and ``weights`` holds
        each ordered pair once, so i dominates everyone exactly when it has
        n-1 out-edges.
        """
        out_degree = [0] * self.n
        for i, _ in self.weights:
            out_degree[i] += 1
        others = self.n - 1
        return [i for i in range(self.n) if out_degree[i] == others]

    def edge_on_max_path_to(
        self, j: int, i: int, dists_to_i: list[float] | None = None
    ) -> bool:
        """Is edge ``(j, i)`` on some maximum-weight path ``k → i``?

        Edge ``(j, i)`` lies on a maximum path ``k → i`` iff
        ``dist(k, j) + w(j, i) = dist(k, i)`` with ``dist(k, j)`` finite;
        every source k is checked (``k = j`` covers the direct case).
        """
        if not self.has_edge(j, i):
            return False
        w = self.weights[(j, i)]
        dists_to_i = dists_to_i if dists_to_i is not None else self.all_dists_to(i)
        dists_to_j = self.all_dists_to(j)
        return any(
            dists_to_j[k] != _NEG_INF and dists_to_j[k] + w == dists_to_i[k]
            for k in range(self.n)
        )

    # -- the move ---------------------------------------------------------------

    def inc(self, i: int) -> "DistanceGraph":
        """``inc(i, G)``: the graph image of ``move_token_i`` (in place).

        For every other token j, conditions evaluated on the *pre-move*
        graph:

        - if j is (weakly) ahead of i and the edge ``(j, i)`` lies on a
          maximum path into i, token i closes that gap by one
          (``w(j, i) -= 1``; the max-path condition is what implements
          shrinking — a saturated gap that no longer reflects true distance
          is not closed);
        - otherwise, if i is ahead of j and not yet saturated
          (``w(i, j) < K``), i pulls further ahead (``w(i, j) += 1``).

        Afterwards, any edge driven below 0 is flipped, and tied pairs are
        given both weight-0 edges (property 1's normal form).
        """
        before = self.copy()
        for j in range(self.n):
            if j == i:
                continue
            if before.has_edge(j, i) and before.edge_on_max_path_to(j, i):
                self.weights[(j, i)] -= 1
            elif before.has_edge(i, j) and before.weights[(i, j)] < self.K:
                self.weights[(i, j)] += 1
        self._normalize()
        return self

    def _normalize(self) -> None:
        """Flip negative edges; materialise both edges of every tie."""
        for (j, i), w in list(self.weights.items()):
            if w < 0:
                del self.weights[(j, i)]
                self.weights[(i, j)] = -w
        for (j, i), w in list(self.weights.items()):
            if w == 0:
                self.weights[(i, j)] = 0

    # -- misc ----------------------------------------------------------------------

    def as_weight_matrix(self) -> list[list[float]]:
        """n×n matrix of edge weights (``None`` for absent edges)."""
        matrix: list[list[float]] = [
            [None] * self.n for _ in range(self.n)  # type: ignore[list-item]
        ]
        for (i, j), w in self.weights.items():
            matrix[i][j] = w
        return matrix

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistanceGraph):
            return NotImplemented
        return (self.n, self.K, self.weights) == (other.n, other.K, other.weights)

    def __repr__(self) -> str:
        edges = ", ".join(f"{i}->{j}:{w}" for i, j, w in self.edges())
        return f"DistanceGraph(n={self.n}, K={self.K}, {{{edges}}})"
