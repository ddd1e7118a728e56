"""Scannable memory (§2 of the paper).

A *scannable memory* is an n-slot shared object where slot ``i`` is written
only by process ``i`` and a ``scan`` returns a view — one value per slot —
satisfying:

- **P1 (regularity)**: every returned value was written by an operation that
  potentially coexists with the scan;
- **P2 (snapshot)**: any two returned values come from writes that
  potentially coexist with one another — the view looks instantaneous;
- **P3 (scan serializability)**: all scans by all processes are totally
  ordered: of any two views, one is slot-wise no older than the other.

Implementations:

- :class:`~repro.snapshot.arrows.ArrowScannableMemory` — the paper's bounded
  construction (handshake "arrow" bits + alternating-bit double collect);
- :class:`~repro.snapshot.sequenced.SequencedScannableMemory` — the
  unbounded sequence-number double-collect comparator.

:mod:`repro.snapshot.properties` checks P1–P3 over recorded traces, using
ghost write sequence numbers that the implementations carry for verification
only (the algorithms never read them).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.snapshot.arrows": ("ArrowScannableMemory",),
        "repro.snapshot.embedded": ("EmbeddedScanSnapshot",),
        "repro.snapshot.interface": ("ScannableMemory",),
        "repro.snapshot.properties": (
            "PropertyViolation",
            "check_p1_regularity",
            "check_p2_snapshot",
            "check_p3_serializability",
            "check_all_properties",
        ),
        "repro.snapshot.sequenced": ("SequencedScannableMemory",),
    },
)

__all__ = [
    "ArrowScannableMemory",
    "EmbeddedScanSnapshot",
    "PropertyViolation",
    "ScannableMemory",
    "SequencedScannableMemory",
    "check_all_properties",
    "check_p1_regularity",
    "check_p2_snapshot",
    "check_p3_serializability",
]
