"""The persistent job queue: transitions, replay, restart requeue."""

import json

import pytest

from repro.serve.queue import Job, JobLogCorruption, JobQueue, JobStates

SPEC = {"kind": "sweep", "priority": "normal", "params": {"reps": 1}}


def test_lifecycle_queued_running_done(tmp_path):
    queue = JobQueue(tmp_path / "jobs.jsonl")
    queue.submit("j1", SPEC)
    assert queue.depth() == 1
    job = queue.claim()
    assert job is not None and job.id == "j1"
    assert job.state == JobStates.RUNNING and job.attempts == 1
    assert queue.claim() is None  # nothing else queued
    queue.finish("j1", {"ok": True})
    done = queue.get("j1")
    assert done.state == JobStates.DONE
    assert done.result == {"ok": True}


def test_claim_is_fifo_by_submission_order(tmp_path):
    queue = JobQueue(tmp_path / "jobs.jsonl")
    for job_id in ("a", "b", "c"):
        queue.submit(job_id, SPEC)
    assert [queue.claim().id for _ in range(3)] == ["a", "b", "c"]


def test_log_replay_restores_state_and_results(tmp_path):
    path = tmp_path / "jobs.jsonl"
    queue = JobQueue(path)
    queue.submit("done-job", SPEC)
    queue.claim()
    queue.finish("done-job", {"table": [1, 2]})
    queue.submit("failed-job", SPEC)
    queue.claim()
    queue.fail("failed-job", "boom")
    queue.submit("shed-job", SPEC)
    queue.shed("shed-job", "budget exhausted")

    reloaded = JobQueue(path)
    assert reloaded.get("done-job").state == JobStates.DONE
    assert reloaded.get("done-job").result == {"table": [1, 2]}
    assert reloaded.get("failed-job").state == JobStates.FAILED
    assert reloaded.get("failed-job").error == "boom"
    assert reloaded.get("shed-job").state == JobStates.SHED
    assert reloaded.get("shed-job").reason == "budget exhausted"


def test_running_jobs_requeue_on_reload(tmp_path):
    path = tmp_path / "jobs.jsonl"
    queue = JobQueue(path)
    queue.submit("j1", SPEC)
    queue.claim()  # RUNNING when the "server" dies

    reloaded = JobQueue(path)
    job = reloaded.get("j1")
    assert job.state == JobStates.QUEUED
    assert reloaded.wake.is_set()
    # The requeue is itself an audited log event.
    events = [
        json.loads(line)
        for line in path.read_text().splitlines()
    ]
    assert events[-1]["state"] == JobStates.QUEUED
    assert "restart" in events[-1]["reason"]


def test_boot_requeue_equals_a_replay_of_its_log(tmp_path):
    path = tmp_path / "jobs.jsonl"
    queue = JobQueue(path)
    queue.submit("j1", SPEC)
    queue.claim()  # RUNNING when the "server" dies
    booted = JobQueue(path).get("j1").snapshot()
    assert booted["reason"] == "requeued after restart"
    assert booted == JobQueue(path, requeue_running=False).get("j1").snapshot()


def test_readonly_reload_does_not_mutate_the_log(tmp_path):
    path = tmp_path / "jobs.jsonl"
    queue = JobQueue(path)
    queue.submit("j1", SPEC)
    queue.claim()
    before = path.read_bytes()
    reloaded = JobQueue(path, requeue_running=False)
    assert reloaded.get("j1").state == JobStates.RUNNING
    assert path.read_bytes() == before


def test_requeue_only_applies_to_terminal_resubmittable_states(tmp_path):
    queue = JobQueue(tmp_path / "jobs.jsonl")
    queue.submit("j1", SPEC)
    queue.claim()
    queue.fail("j1", "boom")
    assert queue.requeue("j1").state == JobStates.QUEUED
    queue.claim()
    queue.finish("j1", {})
    assert queue.requeue("j1").state == JobStates.DONE  # DONE stays DONE


def test_torn_trailing_line_is_tolerated(tmp_path):
    path = tmp_path / "jobs.jsonl"
    queue = JobQueue(path)
    queue.submit("j1", SPEC)
    with open(path, "a") as handle:
        handle.write('{"event": "state", "job": "j1", "sta')  # torn append
    reloaded = JobQueue(path)
    assert reloaded.get("j1").state == JobStates.QUEUED


def test_midfile_corruption_reports_file_and_line(tmp_path):
    path = tmp_path / "jobs.jsonl"
    queue = JobQueue(path)
    queue.submit("j1", SPEC)
    queue.submit("j2", SPEC)
    lines = path.read_text().splitlines()
    lines[0] = "garbage{{{"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JobLogCorruption, match=rf"{path}:1:"):
        JobQueue(path)


def test_invalid_event_reports_file_and_line(tmp_path):
    path = tmp_path / "jobs.jsonl"
    path.write_text('{"event": "teleport", "job": "j1"}\n')
    with pytest.raises(JobLogCorruption, match=rf"{path}:1:"):
        JobQueue(path)


def test_snapshot_shape():
    job = Job(id="abc", spec=dict(SPEC), state=JobStates.FAILED, error="x")
    snapshot = job.snapshot()
    assert snapshot["id"] == "abc"
    assert snapshot["kind"] == "sweep"
    assert snapshot["priority"] == "normal"
    assert snapshot["state"] == JobStates.FAILED
    assert snapshot["error"] == "x"
    assert "result" not in snapshot  # served by /jobs/{id}/result only
