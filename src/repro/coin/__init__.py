"""Weak shared coins (§3 of the paper).

A *weak shared coin* is a protocol by which n processes each obtain a value
in {heads, tails} such that, for each outcome, with probability bounded away
from zero *all* processes obtain that outcome — no matter what the strong
adaptive adversary does.  (The coin is "weak" because with the remaining
probability the adversary may cause disagreement; [AH88] show a perfect
shared coin cannot be built.)

Implementations:

- :class:`~repro.coin.walk.WalkSharedCoin` — the Aspnes–Herlihy random-walk
  coin with *unbounded* per-process counters (comparator);
- :class:`~repro.coin.bounded.BoundedWalkSharedCoin` — §3's bounded version:
  counters live in ``{-(m+1), …, m+1}`` and a process whose own counter
  overflows deterministically returns heads (Lemmas 3.3/3.4 make the
  overflow probability negligible for ``m = (f(b)·n)²``);
- :class:`~repro.coin.oracle.OracleCoin` — a perfect atomic shared coin (the
  primitive Chor–Israeli–Li assume; trivially strong, used as a baseline);
- :class:`~repro.coin.local.local_coin_flip` — an independent local coin
  (the Abrahamson regime; gives exponential consensus).

:mod:`repro.coin.logic` holds the pure decision function shared between the
standalone coins and the consensus protocol; :mod:`repro.coin.analysis`
holds the paper's closed-form predictions.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.coin.bounded": ("BoundedWalkSharedCoin",),
        "repro.coin.interface": ("SharedCoin", "coin_flipper_program"),
        "repro.coin.local": ("local_coin_flip",),
        "repro.coin.logic": ("HEADS", "TAILS", "UNDECIDED", "coin_value", "default_m"),
        "repro.coin.oracle": ("OracleCoin",),
        "repro.coin.walk": ("WalkSharedCoin",),
    },
)

__all__ = [
    "BoundedWalkSharedCoin",
    "HEADS",
    "OracleCoin",
    "SharedCoin",
    "TAILS",
    "UNDECIDED",
    "WalkSharedCoin",
    "coin_flipper_program",
    "coin_value",
    "default_m",
    "local_coin_flip",
]
