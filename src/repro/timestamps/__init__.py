"""Bounded time-stamp systems (the [IL87]/[DS89] context of §1).

The paper's introduction explains that *exponential* bounded consensus was
already derivable from Abrahamson's algorithm by replacing its unbounded
time stamps with bounded (concurrent) time-stamp systems — and that no
such transformation seemed to exist for Aspnes–Herlihy, which is why the
paper builds its own bounded machinery (the rounds strip) instead.

This package supplies the time-stamp side of that story:

- :class:`~repro.timestamps.sequential.UnboundedTimestamps` — the trivial
  counter scheme every unbounded protocol implicitly uses;
- :class:`~repro.timestamps.sequential.BoundedSequentialTimestamps` — the
  Israeli–Li [IL87] style *bounded sequential* time-stamp system:
  labels from a finite domain of size 3^(n-1) with a recursive cyclic
  dominance order, where a freshly issued label always dominates all
  currently live ones.

The *concurrent* bounded system of [DS89] (which tolerates labels being
taken while being read) is a paper-sized construction in its own right and
deliberately out of scope — the whole point of the reproduced paper is
that consensus does not need it.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.timestamps.sequential": (
            "BoundedSequentialTimestamps",
            "UnboundedTimestamps",
            "dominates",
        ),
    },
)
