"""The bounded rounds strip (§4 of the paper).

[AH88]'s protocol stores each process's *round number*, an unboundedly
growing integer.  The paper's Observation 1 is that the protocol never needs
absolute round numbers — only (a) relative distances capped at a constant K
and (b) the contributions to the K most recent coins.  This package builds
the bounded replacement in the paper's four stages:

1. :mod:`repro.strip.token_game` — the unbounded *token game* (each process
   moves its token up the naturals): ground truth.
2. :mod:`repro.strip.shrink` — the ``shrink_K`` / ``normalize_K``
   transformations and the *normalized shrunken game*, which keeps all
   token positions inside ``[0, K·n]``.
3. :mod:`repro.strip.distance_graph` — the *distance graph* representation
   ``G(S)`` (weights in ``{0..K}``) and the sequential ``inc(i, G)`` move,
   equivalent to a token move in the shrunken game (Claim 4.1).
4. :mod:`repro.strip.edge_counters` — the concurrent bounded implementation:
   per-pair edge counters that are pointers on a cycle of size ``3K``
   (all arithmetic mod 3K), with ``make_graph`` / ``inc_graph``.

:mod:`repro.strip.invariants` checks properties 1–5 of §4.2 and the
game/graph equivalence.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.strip.distance_graph": ("DistanceGraph",),
        "repro.strip.edge_counters": ("EdgeCounters", "decode_graph", "inc_counters"),
        "repro.strip.invariants": (
            "InvariantViolation",
            "check_graph_invariants",
            "graphs_equal",
        ),
        "repro.strip.shrink": (
            "ShrunkenTokenGame",
            "normalize_k",
            "shrink_k",
            "shrink_normalize",
        ),
        "repro.strip.token_game": ("TokenGame",),
    },
)
