"""repro — Bounded Polynomial Randomized Consensus (PODC 1989).

A complete, executable reproduction of Attiya, Dolev and Shavit's
*"Bounded Polynomial Randomized Consensus"*: the first randomized wait-free
consensus protocol for asynchronous read/write shared memory that is both
polynomial in expected running time and bounded in memory.

Layers (bottom-up):

- :mod:`repro.runtime` — deterministic interleaving simulator of
  asynchronous shared memory, with strong adaptive adversaries;
- :mod:`repro.registers` — atomic register substrate, including a bounded
  two-writer construction and a linearizability checker;
- :mod:`repro.snapshot` — §2's *scannable memory* (bounded snapshot scans
  via handshake arrows) and its properties P1–P3;
- :mod:`repro.coin` — §3's bounded weak shared coin (random walk with
  truncated counters) and comparators;
- :mod:`repro.strip` — §4's bounded rounds strip (token game → shrinking →
  distance graph → mod-3K edge counters);
- :mod:`repro.consensus` — §5's protocol plus the Aspnes–Herlihy,
  Abrahamson and Chor–Israeli–Li regime baselines;
- :mod:`repro.analysis` — experiment framework reproducing the paper's
  quantitative claims (experiments E1–E12, see EXPERIMENTS.md);
- :mod:`repro.obs` — runtime observability: the metrics registry every
  simulation owns, structured trace export (JSONL / Chrome ``trace_event``)
  and wall-clock profiling (see docs/observability.md).

Quickstart::

    from repro import AdsConsensus, validate_run

    protocol = AdsConsensus()                # K=2, b=2, bounded counters
    run = protocol.run([0, 1, 1, 0], seed=7) # four processes, mixed inputs
    assert validate_run(run).ok
    print(run.decisions)                     # e.g. {0: 1, 1: 1, 2: 1, 3: 1}
"""

import importlib
import sys


def _lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """The PEP 562 module ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each submodule to the public names it defines.  A
    name is imported from its submodule on first access and cached in
    the package namespace, so importing one submodule of a package
    loads none of its siblings.
    """
    origins = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name not in origins:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(origins[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origins.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.consensus": (
            "AdsConsensus",
            "AdsConsensusObject",
            "AspnesHerlihyConsensus",
            "AtomicCoinConsensus",
            "ConsensusRun",
            "LocalCoinConsensus",
            "MultivaluedConsensusObject",
            "validate_run",
        ),
        "repro.obs": ("MetricsRegistry", "MetricsSnapshot", "Profiler"),
        "repro.universal": ("UniversalObject",),
        "repro.runtime": (
            "CrashPlan",
            "RandomScheduler",
            "RoundRobinScheduler",
            "ScriptedScheduler",
            "Simulation",
            "SplitAdversary",
        ),
        "repro.runtime.adversary": ("LockstepAdversary",),
    },
)

__version__ = "1.0.0"

__all__ = [
    "AdsConsensus",
    "AdsConsensusObject",
    "AspnesHerlihyConsensus",
    "AtomicCoinConsensus",
    "ConsensusRun",
    "CrashPlan",
    "LocalCoinConsensus",
    "LockstepAdversary",
    "MetricsRegistry",
    "MetricsSnapshot",
    "MultivaluedConsensusObject",
    "Profiler",
    "RandomScheduler",
    "RoundRobinScheduler",
    "ScriptedScheduler",
    "Simulation",
    "SplitAdversary",
    "UniversalObject",
    "validate_run",
    "__version__",
]
