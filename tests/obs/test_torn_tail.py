"""One torn-tail rule for every append-only JSONL store.

The run ledger, the serve job log and the job trace follow the rule of
:mod:`repro.obs.ledger`: bytes after the last newline are kept when they
parse and dropped when they do not, every append heals them first under
its lock, and a newline-terminated line that does not parse is
corruption wherever it sits.
"""

import json
import re
import types

import pytest

from repro.obs.ledger import LedgerCorruption, RunLedger, make_record, read_records
from repro.serve import queue as queue_module
from repro.serve.queue import JobLogCorruption, JobQueue
from repro.serve.telemetry import JobTracer, load_job_trace

SPEC = {"kind": "sweep", "priority": "normal", "params": {"reps": 1}}

#: What a writer killed mid-append leaves: a line cut before its newline.
FRAGMENT = '{"fingerprint": "torn-mid-wri'


@pytest.fixture(autouse=True)
def _deterministic(monkeypatch):
    """Pin the code version and the job log's clock, so the same appends
    write the same bytes in two files."""
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-code-v1")
    monkeypatch.setattr(queue_module, "time", types.SimpleNamespace(time=lambda: 1.0))


def _record(seed):
    return make_record(
        kind="sweep",
        experiment="sweep:test",
        seed=seed,
        config={"n": 2},
        outcome={"value": 1.0},
    )


# -- each store's own writer, and the seeds a fresh reader returns -----------


def _ledger_append(path, seeds):
    ledger = RunLedger(path)
    for seed in seeds:
        ledger.append(_record(seed))


def _ledger_append_all(path, seeds):
    ledger = RunLedger(path)
    for seed in seeds:
        ledger.append_all([_record(seed)])


def _job_log_submit(path, seeds):
    queue = JobQueue(path)
    for seed in seeds:
        queue.submit(f"j{seed}", SPEC)


def _trace_span(path, seeds):
    tracer = JobTracer(path)
    for seed in seeds:
        tracer.span(f"j{seed}", "task", 1.0, 2.0)


def _ledger_seeds(path):
    return [record.seed for record in read_records(path)]


def _job_log_seeds(path):
    return [int(job.id[1:]) for job in JobQueue(path, requeue_running=False).jobs()]


def _trace_seeds(path):
    return [int(record["job"][1:]) for record in load_job_trace(path)]


WRITERS = {
    "ledger-append": (_ledger_append, _ledger_seeds),
    "ledger-append_all": (_ledger_append_all, _ledger_seeds),
    "job-log": (_job_log_submit, _job_log_seeds),
    "job-trace": (_trace_span, _trace_seeds),
}


@pytest.mark.parametrize("before", [0, 1], ids=["empty", "after-a-line"])
@pytest.mark.parametrize("store", sorted(WRITERS))
def test_appends_after_a_torn_tail_heal_it_first(tmp_path, store, before):
    write, read = WRITERS[store]
    torn, whole = tmp_path / "torn.jsonl", tmp_path / "whole.jsonl"
    for path in (torn, whole):
        write(path, range(before))
    with open(torn, "a") as handle:
        handle.write(FRAGMENT)  # a writer killed mid-append
    for path in (torn, whole):
        write(path, [before, before + 1])
    assert read(torn) == list(range(before + 2))
    assert torn.read_bytes() == whole.read_bytes()


# -- one rule, three readers -------------------------------------------------


def _job_log_line(seed):
    return json.dumps({"event": "submit", "job": f"j{seed}", "spec": SPEC, "at": 1.0})


def _trace_line(seed):
    return json.dumps({"type": "instant", "job": f"j{seed}", "name": "x", "at": 1.0})


READERS = {
    "ledger": (lambda seed: _record(seed).to_line(), _ledger_seeds, LedgerCorruption),
    "job-log": (_job_log_line, _job_log_seeds, JobLogCorruption),
    "job-trace": (_trace_line, _trace_seeds, ValueError),
}


@pytest.mark.parametrize("store", sorted(READERS))
def test_one_tail_rule_for_every_reader(tmp_path, store):
    line, read, error = READERS[store]
    path = tmp_path / "store.jsonl"
    head = line(0) + "\n"
    path.write_text(head + FRAGMENT)
    assert read(path) == [0]  # a torn append: dropped
    path.write_text(head + line(1))
    assert read(path) == [0, 1]  # a line that lost only its newline: kept
    path.write_text(head + FRAGMENT + "\n")
    with pytest.raises(error, match=re.escape(f"{path}:2:")):
        read(path)  # terminated, so corruption, also as the last line
