"""Randomized wait-free consensus protocols (§5 + baselines).

- :class:`~repro.consensus.ads.AdsConsensus` — **the paper's protocol**:
  polynomial expected time *and* bounded memory.  Composes the scannable
  memory (§2), the bounded weak shared coin (§3) and the bounded rounds
  strip (§4).
- :class:`~repro.consensus.aspnes_herlihy.AspnesHerlihyConsensus` — the
  [AH88] regime: polynomial expected time, unbounded memory (integer rounds
  + an unbounded strip of walk coins).
- :class:`~repro.consensus.abrahamson.LocalCoinConsensus` — the [A88]
  regime: local coins only, hence exponential expected time (implemented on
  the same round skeleton so the coin is the only difference).
- :class:`~repro.consensus.cil.AtomicCoinConsensus` — the [CIL87] regime:
  assumes an *atomic shared coin-flip* primitive; constant expected rounds.

All protocols satisfy consistency and validity (checked by
:mod:`repro.consensus.validation` over every run in the suite) and decide in
a finite expected number of steps against the implemented adversaries.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.consensus.abrahamson": ("LocalCoinConsensus",),
        "repro.consensus.ads": ("AdsConsensus", "AdsConsensusObject"),
        "repro.consensus.aspnes_herlihy": ("AspnesHerlihyConsensus",),
        "repro.consensus.bounded_local": ("BoundedLocalCoinConsensus",),
        "repro.consensus.cil": ("AtomicCoinConsensus",),
        "repro.consensus.interface": ("BOTTOM", "ConsensusProtocol", "ConsensusRun"),
        "repro.consensus.multivalued": (
            "MultivaluedAdsConsensus",
            "MultivaluedConsensusObject",
        ),
        "repro.consensus.validation": (
            "check_consistency",
            "check_validity",
            "summarize_memory",
            "validate_run",
        ),
    },
)
