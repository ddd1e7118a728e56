"""Universal wait-free objects from consensus (the paper's motivation).

The introduction motivates randomized consensus as "a basis for
constructing novel universal synchronization primitives, such as the
fetch&cons of [H88], or the sticky bits of [P89]".  This package closes
that loop: Herlihy's universal construction, driven by the paper's
consensus protocol, turns *any* sequential object specification into a
wait-free linearizable shared object — something provably impossible with
read/write registers alone.

- :mod:`repro.universal.spec` — sequential object specifications (FIFO
  queue, stack, counter, CAS register, **sticky bit** [P89],
  **fetch&cons** [H88]);
- :mod:`repro.universal.construction` — the universal construction: a
  consensus-agreed log of operations with announce-based helping, each log
  slot decided by multivalued consensus over the ADS binary protocol.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.universal.construction": ("UniversalObject",),
        "repro.universal.linearizability": (
            "ObjectOp",
            "check_object_history",
            "object_history_from_spans",
        ),
        "repro.universal.spec": (
            "CasRegisterSpec",
            "CounterSpec",
            "FetchAndConsSpec",
            "QueueSpec",
            "SequentialSpec",
            "StackSpec",
            "StickyBitSpec",
        ),
    },
)
