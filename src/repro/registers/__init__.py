"""Register layer.

The paper builds its scannable memory from two kinds of primitive registers
(§2.2): 1-writer-n-reader atomic registers ``V_i`` and 2-writer-2-reader
atomic "arrow" registers ``A_ij``, citing bounded constructions of such
registers from weaker primitives ([Bl87], [L86b], [IL87], [BP87], [N87],
[SAG87], [LV88], [VA86]).

This package provides:

- :mod:`repro.registers.atomic` — directly simulated atomic cells (SWMR /
  MWMR), the default substrate used by the protocols (atomicity holds by
  construction of the simulator);
- :mod:`repro.registers.bloom` — a bounded two-writer register construction
  from SWMR atomic registers in the style of Bloom [Bl87] (tag-parity
  writers, double-collect reader), validated by model checking in the tests;
- :mod:`repro.registers.vitanyi_awerbuch` — the classic unbounded-timestamp
  multi-writer construction ([VA86]-style) used as the *unbounded*
  comparator;
- :mod:`repro.registers.linearizability` — a Wing–Gong style linearizability
  checker for register histories, used by the test-suite to validate both
  constructions.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.registers.atomic": ("AtomicRegister", "RegisterArray"),
        "repro.registers.base": ("MemoryAudit", "measure_magnitude"),
        "repro.registers.bloom": ("TwoWriterRegister",),
        "repro.registers.linearizability": (
            "check_register_history",
            "history_from_spans",
        ),
        "repro.registers.vitanyi_awerbuch": ("UnboundedMultiWriterRegister",),
        "repro.registers.weak": (
            "AtomicFromRegular",
            "RegularBitFromSafe",
            "RegularRegister",
            "SafeRegister",
        ),
    },
)
