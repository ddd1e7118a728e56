"""Virtual global rounds (§6.1), executable.

The correctness proof's central device: although the bounded protocol
stores no absolute round numbers, every scan operation execution can be
assigned a *virtual global round* per process, supporting "the illusion
that a process has an unbounded and monotonically non-decreasing round
number".  The inductive definition (over the P3-serialized scan order):

- base: ``round(i, S{0}) = 0`` for all i;
- step: let ``max`` be the largest round at ``S{a-1}``, ``old_leaders``
  the processes holding it, and ``new_leaders ⊆ old_leaders`` those whose
  edge-counter row changed between the two scans (they performed ``inc``).
  If some new leader ``j'`` exists, everyone is placed relative to it one
  round up: ``round(i, S{a}) = max + 1 - dist(j', i)`` (0 for the new
  leaders themselves); otherwise relative to an old leader:
  ``round(i, S{a}) = max - dist(j', i)``.

This module computes the assignment from a recorded run (the protocol must
be executed with ``ghost_wseqs=True`` so scans can be serialized exactly)
and checks the proof's claims:

- **monotonicity**: a process's virtual round never decreases — "though
  the virtual global round of a process might change even without its
  performing an inc, it can only increase";
- **decision window** (Lemma 6.5's shape): once some process decides, no
  process's virtual round ever exceeds the decider's round by more than
  K (the paper's r + 2 with K = 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.consensus.interface import ConsensusRun
from repro.strip.edge_counters import CounterGraph

_NEG_INF = float("-inf")


@dataclass
class VirtualRoundTrace:
    """Per-scan virtual-round assignment for one recorded run."""

    n: int
    K: int
    scan_pids: list[int]  # which process performed scan S{a}
    rounds: list[list[float]] = field(default_factory=list)  # rounds[a][i]

    @property
    def final_rounds(self) -> list[float]:
        return self.rounds[-1] if self.rounds else [0.0] * self.n

    def rounds_of(self, pid: int) -> list[float]:
        return [assignment[pid] for assignment in self.rounds]


def _serialized_scans(run: ConsensusRun):
    """The run's scans in P3 serialization order.

    Views are slot-wise comparable (P3), so the sum of the ghost write
    sequence numbers is a linear extension of the serialization order.
    """
    if run.simulation is None:
        raise ValueError("run must be executed with keep_simulation=True")
    scans = run.simulation.trace.spans_of_kind("scan", "mem")
    if not scans:
        raise ValueError("no recorded scans (record_spans=True required)")
    if all(sum(s.meta["wseqs"]) == 0 for s in scans):
        raise ValueError(
            "ghost wseqs are all zero: run AdsConsensus(ghost_wseqs=True)"
        )
    return sorted(scans, key=lambda s: (sum(s.meta["wseqs"]), s.span_id))


def compute_virtual_rounds(run: ConsensusRun, K: int = 2) -> VirtualRoundTrace:
    """Assign virtual global rounds to every process at every scan."""
    scans = _serialized_scans(run)
    n = run.n
    trace = VirtualRoundTrace(n=n, K=K, scan_pids=[s.pid for s in scans])
    previous_rounds = [0.0] * n
    previous_view = None
    for scan in scans:
        view = scan.result  # tuple of AdsCells
        graph = CounterGraph([cell.edges for cell in view], K)
        top = max(previous_rounds)
        old_leaders = [j for j in range(n) if previous_rounds[j] == top]
        if previous_view is None:
            new_leaders = [
                j for j in old_leaders if any(view[j].edges)
            ]  # changed from the all-zero initial state
        else:
            new_leaders = [
                j for j in old_leaders if view[j].edges != previous_view[j].edges
            ]
        current = list(previous_rounds)
        if new_leaders:
            anchor = min(new_leaders)
            dists = graph.dists_from(anchor)
            for i in range(n):
                if i in new_leaders:
                    current[i] = top + 1
                else:
                    distance = dists[i] if dists[i] != _NEG_INF else K * n
                    current[i] = top + 1 - distance
        else:
            anchor = min(old_leaders)
            dists = graph.dists_from(anchor)
            for i in range(n):
                distance = dists[i] if dists[i] != _NEG_INF else K * n
                current[i] = top - distance
        trace.rounds.append(current)
        previous_rounds = current
        previous_view = view
    return trace


def check_monotonicity(trace: VirtualRoundTrace) -> list[str]:
    """§6.1: each process's virtual round is non-decreasing."""
    problems = []
    for pid in range(trace.n):
        series = trace.rounds_of(pid)
        for a, (earlier, later) in enumerate(zip(series, series[1:]), start=1):
            if later < earlier:
                problems.append(
                    f"process {pid}: round dropped {earlier} -> {later} at scan {a}"
                )
    return problems


def check_decision_window(trace: VirtualRoundTrace, run: ConsensusRun) -> list[str]:
    """Lemma 6.5's shape: nobody runs more than K rounds past a decider.

    The decider's round is taken as its final virtual round; every
    process's final virtual round must lie within K of it.
    """
    problems = []
    if not run.decisions or not trace.rounds:
        return problems
    finals = trace.final_rounds
    decider_rounds = [finals[pid] for pid in run.decisions]
    earliest = min(decider_rounds)
    for pid in range(trace.n):
        if finals[pid] > earliest + trace.K:
            problems.append(
                f"process {pid} reached virtual round {finals[pid]}, more than "
                f"K={trace.K} past a decider's round {earliest}"
            )
    return problems


def analyze_run(run: ConsensusRun, K: int = 2) -> tuple[VirtualRoundTrace, list[str]]:
    """Compute the assignment and run both checks; return (trace, problems)."""
    trace = compute_virtual_rounds(run, K)
    problems = check_monotonicity(trace) + check_decision_window(trace, run)
    return trace, problems
