"""Bounded model checking of the constructions.

The randomized test-suite samples schedules; this package *enumerates*
them.  :mod:`repro.verify.explorer` replays a workload under every possible
interleaving up to a step bound (asynchronous shared memory is a pure
interleaving model, so replay-based DFS is exact), invoking a property
check on every complete execution — exhaustive verification for small
configurations of exactly the kind the paper's hand proofs argue about:

- the scannable memory's P1–P3 over all schedules of small write/scan
  mixes;
- linearizability of the two-writer register construction over all
  schedules of small read/write mixes (including every stalled-reader
  pattern, not just the classic one);
- consistency and validity of the consensus protocol for small n with the
  coin de-randomized both ways.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.verify.explorer": ("ExplorationResult", "explore_schedules"),
        "repro.verify.fuzz": ("FuzzFailure", "FuzzReport", "fuzz_consensus"),
    },
)

__all__ = [
    "ExplorationResult",
    "FuzzFailure",
    "FuzzReport",
    "explore_schedules",
    "fuzz_consensus",
]
