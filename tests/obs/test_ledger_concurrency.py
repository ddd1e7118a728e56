"""Concurrent ledger appends and file/line corruption diagnostics.

The serve dispatcher and a CLI run may append to one ledger file at
the same time — the invariant the service relies on is that
:func:`repro.obs.ledger.locked_append` interleaves *whole lines*:
any number of writers, zero torn records, `repro history check` clean.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.ledger import (
    LedgerCorruption,
    RunLedger,
    locked_append,
    make_record,
    read_records,
    truncate_torn_tail,
)
from tests.helpers import child_env

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def _pinned_code_version(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-concurrency-v1")


def _record(seed: int, writer: str):
    return make_record(
        kind="sweep",
        experiment=f"sweep:{writer}",
        seed=seed,
        config={"experiment": f"sweep:{writer}", "n": 2},
        # Constant value: concurrency tests must not trip the trend gate.
        outcome={"value": 100.0},
    )


def test_two_threads_interleave_whole_lines(tmp_path):
    path = tmp_path / "ledger.jsonl"
    per_thread = 100
    barrier = threading.Barrier(2)

    def writer(name: str) -> None:
        barrier.wait()
        for seed in range(per_thread):
            locked_append(path, _record(seed, name).to_line() + "\n")

    threads = [
        threading.Thread(target=writer, args=(name,)) for name in ("a", "b")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    records = read_records(path)  # raises LedgerCorruption on a torn record
    assert len(records) == 2 * per_thread
    by_writer = {"sweep:a": 0, "sweep:b": 0}
    for record in records:
        by_writer[record.experiment] += 1
    assert by_writer == {"sweep:a": per_thread, "sweep:b": per_thread}


def test_two_processes_interleave_whole_lines(tmp_path):
    """Cross-process appends through RunLedger (flock, not threading)."""
    path = tmp_path / "ledger.jsonl"
    per_process = 40
    script = (
        "import sys\n"
        "from repro.obs.ledger import RunLedger, make_record\n"
        "writer, path = sys.argv[1], sys.argv[2]\n"
        "ledger = RunLedger(path)\n"
        f"for seed in range({per_process}):\n"
        "    ledger.append(make_record(kind='sweep',"
        " experiment='sweep:' + writer, seed=seed,"
        " config={'experiment': 'sweep:' + writer, 'n': 2},"
        " outcome={'value': 100.0}))\n"
    )
    env = child_env(SRC, REPRO_CODE_VERSION="test-concurrency-v1")
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, writer, str(path)], env=env
        )
        for writer in ("p1", "p2")
    ]
    for proc in procs:
        assert proc.wait(timeout=60) == 0

    records = read_records(path)
    assert len(records) == 2 * per_process
    # And the CLI gate agrees the store is healthy.
    assert main(["history", "check", "--ledger", str(path)]) == 0


def test_history_check_clean_after_threaded_appends(tmp_path, capsys):
    path = tmp_path / "ledger.jsonl"

    def writer(name: str) -> None:
        for seed in range(25):
            locked_append(path, _record(seed, name).to_line() + "\n")

    threads = [
        threading.Thread(target=writer, args=(name,)) for name in ("x", "y")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert main(["history", "check", "--ledger", str(path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_locked_append_creates_parent_directories(tmp_path):
    path = tmp_path / "deep" / "nested" / "ledger.jsonl"
    locked_append(path, "x\n")
    assert path.read_text() == "x\n"


@pytest.mark.skipif(not os.path.exists("/proc/self/fd"), reason="needs /proc")
def test_locked_append_writes_to_a_pipe():
    """A store that cannot seek (``--access-log /dev/stderr`` on a pipe)
    has no tail to heal and still takes appends."""
    read_end, write_end = os.pipe()
    try:
        locked_append(f"/proc/self/fd/{write_end}", '{"a": 1}\n')
        assert os.read(read_end, 64) == b'{"a": 1}\n'
    finally:
        os.close(read_end)
        os.close(write_end)


# -- corruption diagnostics: file and line, not just a fingerprint ----------


def test_midfile_garbage_reports_file_and_line(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path)
    ledger.append(_record(0, "w"))
    ledger.append(_record(1, "w"))
    lines = path.read_text().splitlines()
    lines[0] = lines[0][: len(lines[0]) // 2]  # damage line 1 mid-file
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(LedgerCorruption) as excinfo:
        read_records(path)
    assert str(excinfo.value).startswith(f"{path}:1:")


def test_valid_json_invalid_record_reports_file_and_line(tmp_path):
    path = tmp_path / "ledger.jsonl"
    RunLedger(path).append(_record(0, "w"))
    # Parsable JSON, but not a ledger record: missing every required key.
    locked_append(path, json.dumps({"surprise": True}) + "\n")
    with pytest.raises(LedgerCorruption) as excinfo:
        read_records(path)
    assert str(excinfo.value).startswith(f"{path}:2:")
    assert "not a valid record" in str(excinfo.value)


def test_history_check_prints_location_instead_of_traceback(tmp_path, capsys):
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path)
    ledger.append(_record(0, "w"))
    ledger.append(_record(1, "w"))
    lines = path.read_text().splitlines()
    lines[1] = '{"not": "a record"}'
    path.write_text("\n".join(lines) + "\n")
    assert main(["history", "check", "--ledger", str(path)]) == 3
    out = capsys.readouterr().out
    assert "LEDGER CORRUPT" in out
    assert f"{path}:2:" in out


def test_truncate_torn_tail_heals_a_crashed_append(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path)
    ledger.append(_record(0, "w"))
    intact = path.read_bytes()
    with open(path, "ab") as handle:
        handle.write(b'{"kind": "sweep", "half a rec')  # crash mid-append
    assert truncate_torn_tail(path) is True
    assert path.read_bytes() == intact
    # Idempotent and quiet on a healthy file.
    assert truncate_torn_tail(path) is False
    assert path.read_bytes() == intact


def test_truncate_torn_tail_completes_a_missing_newline(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = RunLedger(path)
    ledger.append(_record(0, "w"))
    intact = path.read_bytes()
    path.write_bytes(intact[:-1])  # the newline itself was lost
    assert truncate_torn_tail(path) is False
    assert path.read_bytes() == intact
    assert len(read_records(path)) == 1
