"""Per-cell campaign bookkeeping is done once, and ledger writes per unit.

- :func:`~repro.resilience.run_checkpointed` fingerprints each cell once
  and hands that fingerprint to both the cache probe and the record;
- :class:`~repro.resilience.LedgerCheckpointer` writes each settled
  engine unit's records with one :func:`~repro.obs.ledger.locked_append`
  (one per cell in-process, one per unit on the pool);
- a ledger cut inside its last batch keeps its complete lines as a
  prefix, and ``repro sweep --resume`` recomputes only the missing cells,
  ending byte-identical to an undisturbed run.
"""

import contextlib
import errno
import io
import json
import time

import pytest

from repro.analysis.experiment import repeat_runs
from repro.cli import main
from repro.obs import ledger as ledger_module
from repro.obs.ledger import LedgerRecord, RunLedger, read_records
from repro.parallel.engine import _fork_available
from repro.resilience import RunPlan
from repro.workloads import build_sweep

needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(autouse=True)
def _pinned_code_version(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-batching-v1")


@pytest.fixture
def writes(monkeypatch):
    """The text of every ``locked_append`` made in this process."""
    seen = []
    locked_append = ledger_module.locked_append

    def spy(path, text):
        seen.append(text)
        locked_append(path, text)

    monkeypatch.setattr(ledger_module, "locked_append", spy)
    return seen


def test_each_fresh_cell_is_fingerprinted_once(monkeypatch, tmp_path):
    calls = []
    compute_fingerprint = ledger_module.compute_fingerprint

    def spy(seed, config, code=None):
        calls.append(seed)
        return compute_fingerprint(seed, config, code)

    monkeypatch.setattr(ledger_module, "compute_fingerprint", spy)
    ledger = RunLedger(tmp_path / "sweep.jsonl")
    build_sweep(n_values=(2, 3), reps=4).execute(RunPlan(ledger=ledger))
    assert ledger.misses == 8
    assert sorted(calls) == sorted(list(range(4)) * 2)


def test_in_process_cells_are_written_one_each(writes, tmp_path):
    path = tmp_path / "serial.jsonl"
    repeat_runs(float, range(5), RunPlan(ledger=RunLedger(path)), experiment="e")
    assert [text.count("\n") for text in writes] == [1] * 5
    assert "".join(writes) == path.read_text()


def _lines(path):
    try:
        return path.read_bytes().count(b"\n")
    except FileNotFoundError:
        return 0


def _gated(path, unit):
    """A cell function whose unit ``k`` cannot finish before the ledger
    holds unit ``k - 1``'s records: units then settle in order, whatever
    the pool's timing, and a flush that waits for more than one unit
    shows up as fewer, larger writes (after a 10 s wait)."""

    def run_once(seed):
        if seed % unit == 0:
            deadline = time.monotonic() + 10
            while _lines(path) < seed and time.monotonic() < deadline:
                time.sleep(0.005)
        return float(seed)

    return run_once


@needs_fork
def test_pool_units_are_written_one_each(writes, tmp_path):
    path = tmp_path / "pool.jsonl"
    samples = repeat_runs(
        _gated(path, unit=10),
        range(40),
        RunPlan(workers=2, batch_size=10, ledger=RunLedger(path)),
        experiment="e",
    )
    assert samples == [float(seed) for seed in range(40)]
    assert [text.count("\n") for text in writes] == [10] * 4
    assert "".join(writes) == path.read_text()
    serial = tmp_path / "serial.jsonl"
    repeat_runs(float, range(40), RunPlan(ledger=RunLedger(serial)), experiment="e")
    assert path.read_bytes() == serial.read_bytes()


def _sweep(path, *flags):
    argv = ["sweep", "--n-values", "2,3", "--reps", "10", "--workers", "2"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([*argv, "--batch", "5", *flags, str(path)]) == 0
    return out.getvalue()


@needs_fork
@pytest.mark.parametrize("cut", ["mid-line", "line-boundary"])
def test_resume_after_a_cut_inside_the_last_batch(tmp_path, cut):
    full = tmp_path / "full.jsonl"
    _sweep(full, "--ledger")
    lines = full.read_bytes().splitlines(keepends=True)
    assert len(lines) == 20  # four units of five cells
    # Keep 17 whole lines: the cut lands inside the last unit's write.
    keep = b"".join(lines[:17])
    if cut == "mid-line":
        keep += lines[17][: len(lines[17]) // 2]
    resumed = tmp_path / "resumed.jsonl"
    resumed.write_bytes(keep)
    assert [r.to_line() for r in read_records(resumed)] == [
        line.decode().rstrip("\n") for line in lines[:17]
    ]
    out = _sweep(resumed, "--resume")
    assert "(17 cells served from checkpoint, 3 recomputed)" in out
    assert resumed.read_bytes() == full.read_bytes()


# -- RunLedger.append_all -----------------------------------------------------


def _record(seed, value=1.0, **extra):
    return ledger_module.make_record(
        kind="sweep",
        experiment="e",
        seed=seed,
        config={"n": 2},
        outcome={"value": value},
        **extra,
    )


def test_equal_records_in_one_batch_are_written_once(writes, tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path)
    assert ledger.append(_record(0))
    assert ledger.append_all([_record(1), _record(0), _record(1), _record(2)]) == 2
    assert [text.count("\n") for text in writes] == [1, 2]
    assert [r.seed for r in read_records(path)] == [0, 1, 2]
    assert [r.seed for r in ledger.records()] == [0, 1, 2]
    assert ledger.append_all([_record(2)]) == 0
    assert len(writes) == 2  # nothing new: no write at all


def test_a_failed_batch_write_leaves_the_index_alone(monkeypatch, tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path)
    locked_append = ledger_module.locked_append
    disk = {"full": True}

    def flaky(path, text):
        if disk["full"]:
            raise OSError(errno.ENOSPC, "No space left on device")
        locked_append(path, text)

    monkeypatch.setattr(ledger_module, "locked_append", flaky)
    with pytest.raises(OSError):
        ledger.append_all([_record(0), _record(1)])
    assert len(ledger) == 0
    disk["full"] = False
    assert ledger.append_all([_record(0), _record(1)]) == 2
    assert [r.seed for r in read_records(path)] == [0, 1]


@pytest.mark.parametrize(
    "extra",
    [
        {},
        {"metrics": {"counters": {"steps": 3}, "series": [[0, 1.5]]}},
        {"timings": {"wall_seconds": 0.25, "per_pid": [0.1, 0.15]}},
        {"metrics": {"gauge": -1}, "timings": {"host": "a", "z": None}},
    ],
)
def test_to_line_is_the_canonical_encoding_of_every_field(extra):
    record = _record(7, value=2.5, **extra)
    payload = {
        "schema": record.schema,
        "fingerprint": record.fingerprint,
        "kind": record.kind,
        "experiment": record.experiment,
        "seed": record.seed,
        "config": record.config,
        "code_version": record.code_version,
        "outcome": record.outcome,
        "metrics": record.metrics,
        "timings": record.timings,
        "provenance": record.provenance,
    }
    expected = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    assert record.to_line() == expected
    parsed = LedgerRecord.from_payload(json.loads(expected))
    assert parsed.to_line() == expected
    assert parsed.identity() == record.identity()
