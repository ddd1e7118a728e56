"""SIGTERM mid-job + restart: resume from the checkpointed ledger prefix.

The acceptance scenario of the service layer, exercised against *real*
server processes: a sweep job is killed partway through, the ledger is
left holding a valid submission-order prefix, and the restarted server
requeues the job and recomputes only the missing fingerprints — ending
with ledger bytes identical to an undisturbed CLI run.  A Ctrl-C'd
server stops its parked worker pool and exits cleanly.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve import ServeClient

SRC = Path(__file__).resolve().parents[2] / "src"

#: 128 cells at about 10 ms each, so the job runs for one to two seconds:
#: slow enough that SIGTERM lands mid-job, fast enough to keep the test
#: under a few seconds per phase.
PARAMS = {"n_values": [6, 8], "reps": 64, "max_steps": 50_000_000}
TOTAL_CELLS = len(PARAMS["n_values"]) * PARAMS["reps"]


def _env():
    return {
        "PATH": "/usr/bin:/bin",
        "PYTHONPATH": str(SRC),
        "PYTHONUNBUFFERED": "1",
        "REPRO_CODE_VERSION": "test-resume-v1",
    }


def _boot_server(state_dir: Path, workers: int) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--workers",
            str(workers),
            "--state-dir",
            str(state_dir),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=_env(),
    )
    deadline = time.monotonic() + 30
    url = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            raise AssertionError(f"server died at boot (rc={proc.returncode})")
        if "listening on" in line:
            url = line.rsplit(" ", 1)[-1].strip()
            break
    assert url.startswith("http://"), f"no listen line within 30s: {url!r}"
    return proc, url


def _wait_for_ledger_lines(path: Path, minimum: int, timeout: float) -> int:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists():
            lines = len(path.read_bytes().splitlines())
            if lines >= minimum:
                return lines
        time.sleep(0.01)
    raise AssertionError(f"ledger never reached {minimum} lines: {path}")


def _children(pid: int) -> list[int]:
    """The pids whose parent is ``pid``, read from /proc."""
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry.name))
    return children


def _assert_gone(pids: list[int], timeout: float = 10.0) -> None:
    """Every pid exits within ``timeout`` (a zombie awaiting its reaper
    has exited)."""
    deadline = time.monotonic() + timeout
    for pid in pids:
        while True:
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except (FileNotFoundError, ProcessLookupError):
                break
            if stat.rsplit(")", 1)[1].split()[0] == "Z":
                break
            assert time.monotonic() < deadline, f"server child {pid} outlived it"
            time.sleep(0.05)


def _sigterm(proc: subprocess.Popen) -> None:
    """SIGTERM the server, then check that none of its children (engine
    workers included) outlives it by more than 10 s."""
    children = _children(proc.pid)
    os.kill(proc.pid, signal.SIGTERM)
    proc.wait(timeout=10)
    _assert_gone(children)


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
@pytest.mark.parametrize("workers", [1, 2])
def test_sigterm_midjob_then_restart_resumes_from_prefix(tmp_path, workers):
    state_dir = tmp_path / "state"
    ledger = state_dir / "ledger.jsonl"

    # Reference: the identical sweep through the CLI, undisturbed.
    reference = tmp_path / "reference.jsonl"
    subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "sweep",
            "--n-values",
            ",".join(map(str, PARAMS["n_values"])),
            "--reps",
            str(PARAMS["reps"]),
            "--ledger",
            str(reference),
        ],
        check=True,
        capture_output=True,
        env=_env(),
    )
    assert len(reference.read_bytes().splitlines()) == TOTAL_CELLS

    # Phase 1: submit, let a few cells checkpoint, SIGTERM mid-job.
    proc, url = _boot_server(state_dir, workers)
    try:
        client = ServeClient(url)
        job = client.submit("sweep", PARAMS)
        job_id = job["id"]
        _wait_for_ledger_lines(ledger, minimum=2, timeout=30)
        _sigterm(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()
    prefix = len(ledger.read_bytes().splitlines())
    assert 0 < prefix < TOTAL_CELLS, (
        f"SIGTERM was meant to land mid-job, ledger has {prefix} lines"
    )
    # The interrupted ledger is a byte-prefix of the undisturbed run
    # (modulo a torn trailing line, which the next boot heals).
    reference_lines = reference.read_bytes().splitlines(keepends=True)
    healed = b"".join(reference_lines[:prefix])
    torn_tolerant = ledger.read_bytes()
    assert healed.startswith(
        torn_tolerant[: torn_tolerant.rfind(b"\n") + 1]
    )

    # Phase 2: restart on the same state dir; the job requeues itself.
    proc, url = _boot_server(state_dir, workers)
    try:
        client = ServeClient(url)
        final = client.wait(job_id, timeout=120, poll=0.2)
        assert final["state"] == "DONE"
        result = client.result(job_id)
        # Only the missing fingerprints were recomputed.
        assert result["cache_hits"] >= prefix - 1  # -1: possible torn tail
        assert result["cache_hits"] + result["recomputed"] == TOTAL_CELLS
        _sigterm(proc)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()

    # The resumed ledger is byte-identical to the undisturbed CLI run.
    assert ledger.read_bytes() == reference.read_bytes()


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigint_with_a_parked_pool_exits_cleanly(tmp_path):
    """Ctrl-C after three jobs on the lifetime pool: the server stops its
    parked workers and exits 0 within 10 s, with no stack dump (which
    ``repro serve`` prints only when stopping overruns)."""
    proc, url = _boot_server(tmp_path / "state", workers=2)
    try:
        client = ServeClient(url)
        for seed_base in range(3):
            job = client.submit(
                "sweep", {"n_values": [2, 3], "reps": 4, "seed_base": seed_base}
            )
            assert client.wait(job["id"], timeout=60, poll=0.05)["state"] == "DONE"
        children = _children(proc.pid)
        assert len(children) >= 2  # the parked pool workers
        os.kill(proc.pid, signal.SIGINT)
        assert proc.wait(timeout=10) == 0
        _assert_gone(children)
        output = proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()
    assert "shutting down" in output
    assert "most recent call first" not in output
