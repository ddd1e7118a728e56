"""Common protocol interface, run records, and shared view helpers."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from repro.faults.plan import FaultPlan
from repro.faults.watchdog import Watchdog
from repro.obs.metrics import NULL_INSTRUMENT, MetricsRegistry, MetricsSnapshot
from repro.registers.base import MemoryAudit
from repro.runtime.scheduler import CrashPlan, RecoveryPlan, Scheduler
from repro.runtime.simulation import Simulation, SimulationOutcome

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.timeseries import SeriesSpec

#: The "undecided" preference the paper writes as ⊥.
BOTTOM = None


@dataclass
class ConsensusRun:
    """Everything recorded about one consensus execution."""

    protocol: str
    n: int
    inputs: tuple[int, ...]
    outcome: SimulationOutcome
    #: The memory audit (E6), kept only in metrics mode: ``None`` when the
    #: run's metrics were disabled.
    audit: MemoryAudit | None
    seed: int
    stats: dict[str, Any] = field(default_factory=dict)
    simulation: Simulation | None = None

    @property
    def decisions(self) -> dict[int, int]:
        return self.outcome.decisions

    @property
    def decided_values(self) -> set:
        return set(self.outcome.decisions.values())

    @property
    def total_steps(self) -> int:
        return self.outcome.total_steps

    @property
    def metrics(self) -> MetricsSnapshot | None:
        """The run's metrics snapshot (``None`` if metrics were disabled)."""
        return self.outcome.metrics

    def max_rounds(self) -> int:
        """Largest number of (local) round increments any process executed."""
        rounds = self.stats.get("rounds_by_pid", {})
        return max(rounds.values(), default=0)


class ConsensusProtocol(abc.ABC):
    """A runnable consensus protocol configuration.

    Subclasses configure parameters in ``__init__`` and implement
    :meth:`_setup`, which creates the run's shared objects inside a fresh
    simulation and returns a per-pid program factory.  :meth:`run` drives a
    complete execution and packages a :class:`ConsensusRun`.
    """

    name: str = "consensus"

    # Whether this protocol's programs implement crash recovery (resume
    # from the shared cell when ``ctx.incarnation > 0``).  Protocols that
    # leave this False would restart from scratch — re-proposing their
    # input over live protocol state, which is *not* safe in general — so
    # the fuzz grid only attaches recovery plans when this is True.
    supports_recovery: bool = False

    # Metric handles default to the shared no-op so protocol internals can
    # always increment them; _bind_metrics swaps in live instruments when a
    # run (or a composable object wrapper) attaches a simulation.
    _m_rounds = NULL_INSTRUMENT
    _m_scans = NULL_INSTRUMENT
    _m_flips = NULL_INSTRUMENT
    _m_decisions = NULL_INSTRUMENT
    _m_leader_gap = NULL_INSTRUMENT
    _m_edge_incs = NULL_INSTRUMENT
    _m_coin_excursion = NULL_INSTRUMENT
    _metrics: MetricsRegistry | None = None

    def _bind_metrics(self, sim: Simulation) -> None:
        """Resolve this protocol's instrument handles against ``sim.metrics``."""
        registry = sim.metrics
        self._metrics = registry
        self._m_rounds = registry.counter(
            "consensus.round_advances", protocol=self.name
        )
        self._m_scans = registry.counter("consensus.scans", protocol=self.name)
        self._m_flips = registry.counter("consensus.coin_flips", protocol=self.name)
        self._m_decisions = registry.counter("consensus.decisions", protocol=self.name)
        self._m_leader_gap = registry.gauge("consensus.leader_gap", protocol=self.name)
        self._m_edge_incs = registry.counter(
            "strip.edge_increments", protocol=self.name
        )
        self._m_coin_excursion = registry.gauge(
            "consensus.coin_excursion", protocol=self.name
        )

    @abc.abstractmethod
    def _setup(
        self, sim: Simulation, inputs: Sequence[int], audit: MemoryAudit | None
    ):
        """Create shared objects; return ``factory(pid) -> program``."""

    def _validate_inputs(self, inputs: Sequence[int]) -> None:
        """These protocols are binary; reject anything else loudly
        (arbitrary values go through ``MultivaluedAdsConsensus``)."""
        if not inputs:
            raise ValueError("need at least one process input")
        bad = [v for v in inputs if v not in (0, 1)]
        if bad:
            raise ValueError(
                f"binary consensus inputs must be 0 or 1, got {bad[:3]}; "
                "use MultivaluedAdsConsensus for arbitrary values"
            )

    def _collect_stats(self) -> dict[str, Any]:
        """Protocol-specific per-run statistics (overridden by subclasses)."""
        return {}

    def run(
        self,
        inputs: Sequence[int],
        scheduler: Scheduler | None = None,
        seed: int = 0,
        crash_plan: CrashPlan | None = None,
        recovery_plan: RecoveryPlan | None = None,
        max_steps: int = 2_000_000,
        record_events: bool = False,
        record_spans: bool = False,
        keep_simulation: bool = False,
        metrics: MetricsRegistry | None = None,
        fault_plan: FaultPlan | None = None,
        watchdog: Watchdog | None = None,
        raise_on_budget: bool = True,
        series: "SeriesSpec | None" = None,
    ) -> ConsensusRun:
        """Run one consensus instance with the given inputs.

        Spans/events are off by default (protocol runs are long; property
        checking tests switch them on explicitly).  Metrics are on by
        default; pass ``metrics=MetricsRegistry(enabled=False)`` to opt out.
        The memory audit is part of metrics mode: a run without metrics
        skips it and carries ``audit=None``.
        ``series`` attaches a :class:`~repro.obs.timeseries.SeriesRecorder`
        sampling the tracked counters every ``series.every`` steps; the
        series ride on the run's metrics snapshot.
        Resilience hooks: ``recovery_plan`` restarts crashed processes,
        ``fault_plan`` injects register faults, ``watchdog`` monitors the
        step loop, and ``raise_on_budget=False`` turns a budget blowup into
        a degraded outcome instead of :class:`StepBudgetExceeded`.
        """
        self._validate_inputs(inputs)
        n = len(inputs)
        sim = Simulation(
            n,
            scheduler=scheduler,
            seed=seed,
            crash_plan=crash_plan,
            recovery_plan=recovery_plan,
            record_events=record_events,
            record_spans=record_spans,
            metrics=metrics,
            faults=fault_plan,
            series=series,
        )
        audit = MemoryAudit() if sim.metrics.enabled else None
        self._bind_metrics(sim)
        factory = self._setup(sim, inputs, audit)
        sim.spawn_all(factory)
        outcome = sim.run(
            max_steps, raise_on_budget=raise_on_budget, watchdog=watchdog
        )
        return ConsensusRun(
            protocol=self.name,
            n=n,
            inputs=tuple(inputs),
            outcome=outcome,
            audit=audit,
            seed=seed,
            stats=self._collect_stats(),
            simulation=sim if keep_simulation else None,
        )


def agreed_value(prefs: Sequence) -> Any:
    """The common non-⊥ value of ``prefs``, or ``None`` if none exists."""
    values = set(prefs)
    if len(values) == 1:
        value = values.pop()
        if value is not BOTTOM:
            return value
    return None
