"""Fault injection & resilience: probing the edges of the paper's model.

The paper's guarantees are proved *inside* a model — atomic registers,
crash = halt forever — and the rest of the repository verifies the protocol
within it.  This package deliberately steps outside:

- :mod:`repro.faults.plan` / :mod:`repro.faults.injector` — seeded,
  replayable register faults (stale reads, lost writes, value corruption)
  injected at the atomic-register substrate every construction bottoms out
  in;
- :mod:`repro.faults.watchdog` — online starvation / livelock monitors that
  turn would-be step-budget blowups into early, diagnosed, *degraded*
  outcomes;
- crash *recovery* lives in the runtime (:class:`~repro.runtime.scheduler.
  RecoveryPlan`, :meth:`Simulation.restart`): a crashed process may restart
  its program with local state lost but its shared cell intact;
- :mod:`repro.faults.campaign` — the mutation-testing campaign that flips
  each fault class on and proves the corresponding safety checker actually
  fires (imported explicitly; it depends on the consensus layer).

See ``docs/robustness.md`` for the fault taxonomy and which paper property
survives which fault class.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.faults.injector": ("FaultInjector", "InjectionRecord"),
        "repro.faults.plan": ("FAULT_KINDS", "FaultPlan", "corrupt_value"),
        "repro.faults.watchdog": ("Watchdog", "WatchdogAlert"),
    },
)
