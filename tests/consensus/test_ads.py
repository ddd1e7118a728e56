"""Tests for the paper's protocol (§5)."""

import pytest

from repro.consensus import AdsConsensus, validate_run
from repro.consensus.ads import AdsCell, pref_reader
from repro.consensus.interface import BOTTOM
from repro.faults.plan import FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.runtime import RoundRobinScheduler, SplitAdversary
from repro.strip import decode_graph, inc_counters
from repro.strip.edge_counters import CounterGraph


def test_unanimous_inputs_decide_that_value_fast():
    proto = AdsConsensus()
    for value in (0, 1):
        run = proto.run([value] * 4, seed=value)
        assert validate_run(run).ok
        assert run.decided_values == {value}
        assert run.max_rounds() <= 2  # Lemma 6.4: by round r+1


def test_mixed_inputs_agree_on_some_input():
    proto = AdsConsensus()
    run = proto.run([0, 1, 0, 1], seed=3)
    assert validate_run(run).ok
    assert len(run.decided_values) == 1
    assert run.decided_values <= {0, 1}


def test_single_process_decides_own_input():
    run = AdsConsensus().run([1], seed=0)
    assert run.decisions == {0: 1}


def test_two_processes_opposite_inputs():
    for seed in range(10):
        run = AdsConsensus().run([0, 1], seed=seed)
        assert validate_run(run).ok


def test_rejects_k_below_two():
    with pytest.raises(ValueError):
        AdsConsensus(K=1)


def test_unknown_snapshot_kind_rejected():
    proto = AdsConsensus(snapshot_kind="telepathy")
    with pytest.raises(ValueError):
        proto.run([0, 1], seed=0)


@pytest.mark.parametrize("snapshot_kind", ["arrows", "sequenced", "embedded"])
def test_snapshot_ablation_both_work(snapshot_kind):
    proto = AdsConsensus(snapshot_kind=snapshot_kind)
    for seed in range(4):
        run = proto.run([0, 1, 1], seed=seed)
        assert validate_run(run).ok


def test_bloom_arrow_substrate_end_to_end():
    # Full protocol over arrows built from the two-writer construction,
    # which itself sits on SWMR cells: boundedness all the way down.
    proto = AdsConsensus(snapshot_kind="arrows-bloom")
    run = proto.run([1, 0], seed=2, max_steps=10_000_000)
    assert validate_run(run).ok


@pytest.mark.parametrize("K", [2, 3, 4])
def test_k_parameter_sweep(K):
    proto = AdsConsensus(K=K)
    run = proto.run([0, 1, 0], seed=K)
    assert validate_run(run).ok


def test_memory_is_bounded_by_protocol_parameters():
    K, m = 2, 9
    proto = AdsConsensus(K=K, m_bound=m)
    run = proto.run([0, 1, 0, 1], seed=5)
    assert validate_run(run).ok
    # Every integer in every register is bounded by max(m+1, 3K-1, K, n).
    assert run.audit.max_magnitude <= max(m + 1, 3 * K - 1)


def test_default_m_used_when_not_given():
    proto = AdsConsensus(b_barrier=2, f_factor=4)
    run = proto.run([0, 1, 1], seed=1)
    assert validate_run(run).ok
    # default m for n=3: (4·2·3)² = 576; counters must stay within 577.
    assert run.audit.max_magnitude <= 577


def test_stats_are_collected():
    run = AdsConsensus().run([0, 1, 0], seed=7)
    assert set(run.stats) == {
        "rounds_by_pid",
        "flips_by_pid",
        "scans_by_pid",
        "scan_attempts",
    }
    assert all(r >= 1 for r in run.stats["rounds_by_pid"].values())
    assert run.stats["scan_attempts"] >= sum(run.stats["scans_by_pid"].values())


def test_round_robin_schedule_also_safe():
    run = AdsConsensus().run([1, 0, 1, 0], scheduler=RoundRobinScheduler(), seed=0)
    assert validate_run(run).ok


def test_ads_cell_next_slot_wraps():
    cell = AdsCell(pref=BOTTOM, coins=(0, 0, 0), current_coin=2, edges=(0, 0))
    assert cell.next_slot() == 0
    cell = AdsCell(pref=BOTTOM, coins=(0, 0, 0), current_coin=0, edges=(0, 0))
    assert cell.next_slot() == 1


def test_final_cells_decode_to_legal_graph():
    proto = AdsConsensus()
    run = proto.run([0, 1, 0, 1], seed=11, keep_simulation=True)
    memory = run.simulation.shared["mem"]
    rows = [cell.edges for cell in memory.peek_view()]
    graph = decode_graph(rows, proto.K)
    from repro.strip import check_graph_invariants

    assert check_graph_invariants(graph) == []


def test_inc_steps_from_the_cells_own_row_not_the_scanned_copy():
    # A fault can corrupt a process's published row, so the scanned copy of
    # its own row may differ from its cell; ``_inc`` steps from the cell's
    # row, as ``inc_counters`` does on the rows with that row patched in.
    proto = AdsConsensus()
    proto.run([0, 1, 0], seed=0)  # binds the metrics and per-pid counters
    rows = [(0, 2, 2), (1, 0, 1), (0, 0, 0)]
    scanned = CounterGraph(((0, 2, 2), (0, 0, 1), (0, 0, 0)), proto.K)
    cell = AdsCell(pref=1, coins=(0, 0, 0), current_coin=0, edges=rows[1])
    expected = inc_counters(1, rows, proto.K)
    assert expected == [2, 0, 2]
    assert scanned.inc_row(1) == (1, 0, 2)  # what the corrupted copy gives
    assert list(proto._inc(1, cell, scanned).edges) == expected


def test_decided_processes_stop_taking_steps():
    run = AdsConsensus().run([0, 0, 0], seed=0, keep_simulation=True)
    outcome = run.simulation.run(0, raise_on_budget=False)
    # No runnable processes remain after all decided.
    assert run.simulation.runnable_pids() == []


def test_deterministic_replay():
    a = AdsConsensus().run([0, 1, 1, 0], seed=99)
    b = AdsConsensus().run([0, 1, 1, 0], seed=99)
    assert a.decisions == b.decisions
    assert a.total_steps == b.total_steps


def test_leader_gap_observer_tolerates_an_illegal_graph():
    """A corrupted write can make a scanned view decode to a distance graph
    with a positive cycle.  The metrics-only leader-gap observer used to
    raise on it, so turning metrics on crashed runs that complete with
    metrics off (a fault-fuzz cell of ``repro chaos --seed 2``)."""

    def run(metrics_enabled):
        return AdsConsensus().run(
            [1, 0, 1],
            scheduler=SplitAdversary(pref_reader, seed=1198677871),
            seed=1198677871,
            fault_plan=FaultPlan(
                seed=1649350346,
                corrupt_write_rate=0.03696532678102451,
                targets=("mem.",),
            ),
            max_steps=300_000,
            raise_on_budget=False,
            metrics=MetricsRegistry(enabled=metrics_enabled),
        )

    on, off = run(True), run(False)
    assert on.outcome.metrics.counter_total("faults.injected") > 0
    assert on.decisions == off.decisions
    assert on.total_steps == off.total_steps
