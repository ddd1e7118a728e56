"""A serve chaos job runs exactly the cells of ``repro chaos``.

Both entry points run :func:`repro.workloads.run_chaos`, so a chaos job
of the same size on the ledger a CLI chaos run wrote is served from that
ledger cell for cell, and writes nothing new.
"""

from repro.cli import main
from repro.serve.dispatcher import Dispatcher
from repro.serve.queue import JobQueue, JobStates
from repro.serve.schemas import validate_spec


def test_serve_chaos_job_cache_hits_every_cell_of_a_cli_chaos_run(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-chaos-parity-v1")
    ledger = tmp_path / "ledger.jsonl"
    assert main(["chaos", "--runs-per-cell", "2", "--ledger", str(ledger)]) == 0
    capsys.readouterr()
    written = ledger.read_text()
    assert len(written.splitlines()) == 27

    queue = JobQueue(tmp_path / "jobs.jsonl")
    dispatcher = Dispatcher(queue, ledger_path=ledger)
    spec = validate_spec({"kind": "chaos", "params": {"runs_per_cell": 2}})
    queue.submit("job", spec)
    dispatcher.execute(queue.claim())
    job = queue.get("job")
    assert job.state == JobStates.DONE, job.error
    assert (job.result["cache_hits"], job.result["recomputed"]) == (27, 0)
    assert ledger.read_text() == written
