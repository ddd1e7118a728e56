"""Bounded concurrent representation of the distance graph (§4.3).

Property 1 of the distance graph implies the weights of the (undirected)
pairs determine the whole directed structure, so the graph is stored as a
collection of *edge counters*: process ``i`` keeps a row ``e_i[0..n-1]`` of
counters in ``{0 .. 3K-1}`` (``e_i[i]`` unused).  The pair
``(e_i[j], e_j[i])`` represents two pointers on a cycle of size ``3K``; by
incrementing ``e_i[j]`` (mod 3K) process ``i`` moves its pointer clockwise.

Decoding (``make_graph``): with ``d = (e_i[j] - e_j[i]) mod 3K``,

- ``d == 0``      → tied: both edges ``(i, j)`` and ``(j, i)``, weight 0;
- ``d <  3K - d`` → edge ``(i, j)`` with ``w(i, j) = d``;
- ``d >  3K - d`` → edge ``(j, i)`` with ``w(j, i) = 3K - d``.

Legal protocols keep every weight in ``{0..K}``; since ``K < 3K/2`` the
decoding is unambiguous (a ``d = 3K - d`` tie would be ill-formed and is
reported).  The slack factor 3 is what tolerates concurrency: processes
increment their rows based on *scanned* (serialized, P3) views, and between
a scan and the corresponding increment other rows advance by a bounded
amount, which the 3K cycle absorbs without wrapping ambiguity.

``inc_graph`` (the paper's procedure): process ``i`` increments ``e_i[j]``
exactly when the sequential move ``inc(i, G)`` would (a) close the gap to a
``j`` ahead of it whose edge lies on a maximum path into ``i``, or (b) push
further ahead of a ``j`` it already dominates with unsaturated weight —
one modular increment implements both, since raising ``e_i[j]`` moves ``i``
up by one *relative to j*.
"""

from __future__ import annotations

from typing import Sequence

from repro.strip.distance_graph import DistanceGraph, longest_paths

_NEG_INF = float("-inf")


class IllFormedCounters(ValueError):
    """Counter pair decodes to an ambiguous direction (protocol bug)."""


def cycle_size(K: int) -> int:
    return 3 * K


class CounterGraph:
    """The paper's ``make_graph`` of one view's edge rows, with its queries.

    ``W[i][j]`` is the weight of edge i→j, or ``None`` when absent;
    ``edges`` lists the same edges as ``(src, dst, weight)`` triples; and
    ``leaders`` holds, in ascending order, the pids that dominate everyone
    (an edge to every other pid).  Construction raises
    :class:`IllFormedCounters` on an ambiguous pair.  The per-pid queries
    (distances, ``near_pids``, ``coin_sources`` and ``inc_row``) are
    computed on first use and cached; those that read distances raise
    :class:`~repro.strip.distance_graph.PositiveCycleError` on a positive
    cycle and then cache nothing.

    An instance never changes an answer once given, so it may be shared
    across lanes and calls (the fused lanes keep one per rows tuple):
    callers never mutate ``rows``, ``W``, ``edges`` or a returned
    distance list.
    """

    __slots__ = (
        "rows",
        "n",
        "K",
        "W",
        "edges",
        "leaders",
        "_from",
        "_to",
        "_inc",
        "_near",
        "_sources",
    )

    def __init__(self, rows: Sequence[Sequence[int]], K: int):
        n = len(rows)
        size = cycle_size(K)
        W: list[list[int | None]] = [[None] * n for _ in range(n)]
        edges = []
        for i in range(n):
            row_i = rows[i]
            Wi = W[i]
            for j in range(i + 1, n):
                d_ij = (row_i[j] - rows[j][i]) % size
                if d_ij == 0:
                    Wi[j] = 0
                    W[j][i] = 0
                    edges.append((i, j, 0))
                    edges.append((j, i, 0))
                    continue
                d_ji = size - d_ij
                if d_ij < d_ji:
                    Wi[j] = d_ij
                    edges.append((i, j, d_ij))
                elif d_ji < d_ij:
                    W[j][i] = d_ji
                    edges.append((j, i, d_ji))
                else:
                    raise IllFormedCounters(
                        f"pair ({i},{j}): counters {row_i[j]}, {rows[j][i]} "
                        f"decode ambiguously (d = {d_ij} both ways, cycle {size})"
                    )
        self.rows = rows
        self.n = n
        self.K = K
        self.W = W
        self.edges = edges
        # A leader's row is None only on its diagonal.
        self.leaders = tuple(i for i in range(n) if W[i].count(None) == 1)
        self._from: list[list[float] | None] = [None] * n
        self._to: list[list[float] | None] = [None] * n
        self._inc: list[tuple[int, ...] | None] = [None] * n
        # Allocated on first query: most decoders of a fused batch never
        # answer a decide test or a coin.
        self._near: list[tuple[int, ...] | None] | None = None
        self._sources: list[tuple[tuple[int, int], ...] | None] | None = None

    def dists_from(self, i: int) -> list[float]:
        """``dist(i, k)`` for every k: maximum path weight out of i."""
        dist = self._from[i]
        if dist is None:
            dist = self._from[i] = longest_paths(self.edges, self.n, i, True)
        return dist

    def dists_to(self, i: int) -> list[float]:
        """``dist(k, i)`` for every k: maximum path weight into i."""
        dist = self._to[i]
        if dist is None:
            dist = self._to[i] = longest_paths(self.edges, self.n, i, False)
        return dist

    def near_pids(self, i: int) -> tuple[int, ...]:
        """The pids k with ``dist(i, k) < K`` (i itself and the pids no
        path from i reaches included), ascending: whose disagreement
        blocks i's decide test."""
        table = self._near
        if table is None:
            table = self._near = [None] * self.n
        near = table[i]
        if near is None:
            K = self.K
            near = table[i] = tuple(
                k for k, d in enumerate(self.dists_from(i)) if d < K
            )
        return near

    def coin_sources(self, i: int) -> tuple[tuple[int, int], ...]:
        """``(j, w(j, i))`` for each edge j → i of weight below K, by
        ascending j: the processes that contribute to i's round coin."""
        table = self._sources
        if table is None:
            table = self._sources = [None] * self.n
        sources = table[i]
        if sources is None:
            K = self.K
            sources = table[i] = tuple(
                (j, w)
                for j, w in enumerate(row[i] for row in self.W)
                if w is not None and w < K
            )
        return sources

    def inc_row(self, i: int) -> tuple[int, ...]:
        """The paper's ``inc_graph``: process i's new counter row.

        ``rows[i]`` is taken as i's own row.  ``e_i[j]`` is incremented
        (mod 3K) iff the sequential ``inc(i, G)`` move would act on the
        pair ``{i, j}``: j is ahead and its edge ``(j, i)`` lies on a
        maximum path into i (i closes the gap), or i is ahead of j with an
        unsaturated weight (i pushes further ahead).
        """
        row = self._inc[i]
        if row is None:
            W = self.W
            K = self.K
            size = cycle_size(K)
            dists_to_i = self.dists_to(i)
            new = list(self.rows[i])
            for j in range(self.n):
                if j == i:
                    continue
                w_ji = W[j][i]
                # Edge (j, i) lies on a maximum path k -> i iff
                # dist(k, j) + w(j, i) = dist(k, i) with dist(k, j) finite.
                closes_gap = w_ji is not None and any(
                    d_kj != _NEG_INF and d_kj + w_ji == d_ki
                    for d_kj, d_ki in zip(self.dists_to(j), dists_to_i)
                )
                w_ij = W[i][j]
                if closes_gap or (w_ij is not None and w_ij < K):
                    new[j] = (new[j] + 1) % size
            row = self._inc[i] = tuple(new)
        return row


def decode_graph(rows: Sequence[Sequence[int]], K: int) -> DistanceGraph:
    """The paper's ``make_graph``: counters → distance graph."""
    graph = DistanceGraph(len(rows), K)
    graph.weights = {(u, v): w for u, v, w in CounterGraph(rows, K).edges}
    return graph


def inc_counters(i: int, rows: Sequence[Sequence[int]], K: int) -> list[int]:
    """The paper's ``inc_graph``: return process i's new counter row.

    ``rows`` is a (scanned) view of all processes' rows; only row ``i`` is
    recomputed — the caller writes it back as part of its single-writer
    cell.  See :meth:`CounterGraph.inc_row`.
    """
    return list(CounterGraph(rows, K).inc_row(i))


class EdgeCounters:
    """A sequential all-rows counter state (for tests and the game bridge).

    The consensus protocol stores each row inside the owner's scannable-
    memory cell; this helper owns all rows at once so the counter algebra
    can be exercised and property-tested without a simulation.
    """

    def __init__(self, n: int, K: int):
        self.n = n
        self.K = K
        self.rows = [[0] * n for _ in range(n)]

    def graph(self) -> DistanceGraph:
        return decode_graph(self.rows, self.K)

    def inc(self, i: int) -> None:
        """Apply process i's increment move to its own row."""
        self.rows[i] = inc_counters(i, self.rows, self.K)

    def max_counter(self) -> int:
        return max(max(row) for row in self.rows)
