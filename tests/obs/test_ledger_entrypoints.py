"""Ledger wiring of the deterministic entry points.

The acceptance properties of the run ledger, proven on the real entry
points rather than synthetic records:

- recording the same (seed, config, code-version) triple twice yields one
  record and a cache hit (no recomputation) on the second pass;
- a serial run and a ``workers=4`` run of the same workload produce
  **byte-identical** ledger files (sweeps, fuzz grids, campaigns);
- ``--no-cache`` (``use_cache=False``) forces recomputation while still
  deduplicating identical records.
"""

import pytest

from repro.analysis.experiment import Sweep, repeat_runs
from repro.consensus import AdsConsensus
from repro.faults.campaign import run_mutation_campaign
from repro.obs.ledger import RunLedger
from repro.resilience import RunPlan
from repro.verify.fuzz import fuzz_consensus


@pytest.fixture(autouse=True)
def _pinned_code_version(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-code-v1")


def _square(seed: int) -> float:
    return float(seed * seed)


def test_repeat_runs_records_then_serves_from_cache(tmp_path):
    path = tmp_path / "runs.jsonl"
    ledger = RunLedger(path)
    first = repeat_runs(
        _square, range(4), RunPlan(ledger=ledger), experiment="exp", config={"n": 2}
    )
    assert first == [0.0, 1.0, 4.0, 9.0]
    assert len(ledger) == 4

    calls = []

    def counting(seed: int) -> float:
        calls.append(seed)
        return _square(seed)

    again = repeat_runs(
        counting,
        range(4),
        RunPlan(ledger=RunLedger(path)),
        experiment="exp",
        config={"n": 2},
    )
    assert again == first
    assert calls == []  # every seed was a cache hit

    # A new seed is the only fresh work; the known ones stay cached.
    extended = repeat_runs(
        counting,
        range(5),
        RunPlan(ledger=RunLedger(path)),
        experiment="exp",
        config={"n": 2},
    )
    assert extended == [0.0, 1.0, 4.0, 9.0, 16.0]
    assert calls == [4]


def test_repeat_runs_no_cache_recomputes_without_duplicating(tmp_path):
    path = tmp_path / "runs.jsonl"
    repeat_runs(_square, range(3), RunPlan(ledger=RunLedger(path)), experiment="exp")

    calls = []

    def counting(seed: int) -> float:
        calls.append(seed)
        return _square(seed)

    repeat_runs(
        counting,
        range(3),
        RunPlan(ledger=RunLedger(path, use_cache=False)),
        experiment="exp",
    )
    assert calls == [0, 1, 2]  # recomputed
    assert len(RunLedger(path)) == 3  # identical results deduplicated


def test_repeat_runs_distinct_configs_do_not_collide(tmp_path):
    path = tmp_path / "runs.jsonl"
    repeat_runs(_square, [1], RunPlan(ledger=RunLedger(path)), experiment="a")
    served = repeat_runs(
        lambda seed: -1.0, [1], RunPlan(ledger=RunLedger(path)), experiment="b"
    )
    assert served == [-1.0]  # experiment "a"'s record was not served
    assert len(RunLedger(path)) == 2


def _consensus_metric(n: int, seed: int) -> float:
    inputs = [(seed + i) % 2 for i in range(n)]
    run = AdsConsensus().run(inputs, seed=seed, max_steps=1_000_000)
    return float(run.total_steps)


def _sweep(ledger, workers):
    sweep = Sweep(
        "n",
        [2, 3],
        _consensus_metric,
        repetitions=2,
        experiment="sweep:ads:steps",
        config={"protocol": "ads", "metric": "steps"},
    )
    return sweep.execute(RunPlan(workers=workers, ledger=ledger))


def test_sweep_ledger_byte_identical_serial_vs_workers(tmp_path):
    serial_path = tmp_path / "serial.jsonl"
    parallel_path = tmp_path / "parallel.jsonl"
    serial = _sweep(RunLedger(serial_path), workers=1)
    parallel = _sweep(RunLedger(parallel_path), workers=4)
    assert [p.samples for p in serial] == [p.samples for p in parallel]
    assert serial_path.read_bytes() == parallel_path.read_bytes()
    assert len(serial_path.read_bytes()) > 0


def test_sweep_second_pass_is_all_cache_hits(tmp_path):
    path = tmp_path / "sweep.jsonl"
    first = _sweep(RunLedger(path), workers=1)
    size = path.stat().st_size

    def exploding(n: int, seed: int) -> float:
        raise AssertionError("cache miss — sweep cell was recomputed")

    sweep = Sweep(
        "n",
        [2, 3],
        exploding,
        repetitions=2,
        experiment="sweep:ads:steps",
        config={"protocol": "ads", "metric": "steps"},
    )
    again = sweep.execute(RunPlan(workers=1, ledger=RunLedger(path)))
    assert [p.samples for p in again] == [p.samples for p in first]
    assert path.stat().st_size == size  # nothing new was appended


def _fuzz(ledger, workers):
    return fuzz_consensus(
        lambda: AdsConsensus(),
        n_values=(2,),
        runs_per_cell=2,
        crash_probability=1.0,
        recovery_probability=1.0,
        master_seed=0,
        plan=RunPlan(workers=workers, ledger=ledger),
        experiment="fuzz:recovery",
    )


def test_fuzz_ledger_byte_identical_serial_vs_workers(tmp_path):
    serial_path = tmp_path / "serial.jsonl"
    parallel_path = tmp_path / "parallel.jsonl"
    serial = _fuzz(RunLedger(serial_path), workers=1)
    parallel = _fuzz(RunLedger(parallel_path), workers=4)
    assert serial.runs == parallel.runs > 0
    assert serial_path.read_bytes() == parallel_path.read_bytes()
    assert len(serial_path.read_bytes()) > 0


def test_fuzz_second_pass_served_from_cache(tmp_path):
    path = tmp_path / "fuzz.jsonl"
    first = _fuzz(RunLedger(path), workers=1)
    size = path.stat().st_size
    again = _fuzz(RunLedger(path), workers=1)
    assert again.runs == first.runs
    assert again.recovery_runs == first.recovery_runs
    assert [str(f) for f in again.failures] == [str(f) for f in first.failures]
    assert path.stat().st_size == size


def test_campaign_ledger_byte_identical_serial_vs_workers(tmp_path):
    serial_path = tmp_path / "serial.jsonl"
    parallel_path = tmp_path / "parallel.jsonl"
    serial = run_mutation_campaign(
        consensus_max_steps=50_000,
        plan=RunPlan(workers=1, ledger=RunLedger(serial_path)),
    )
    parallel = run_mutation_campaign(
        consensus_max_steps=50_000,
        plan=RunPlan(workers=4, ledger=RunLedger(parallel_path)),
    )
    assert serial.to_json() == parallel.to_json()
    assert serial_path.read_bytes() == parallel_path.read_bytes()

    # Second pass: everything cached, report identical, file untouched.
    size = serial_path.stat().st_size
    again = run_mutation_campaign(
        consensus_max_steps=50_000,
        plan=RunPlan(workers=1, ledger=RunLedger(serial_path)),
    )
    assert again.to_json() == serial.to_json()
    assert serial_path.stat().st_size == size
