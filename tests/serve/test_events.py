"""SSE integration tests: live streams against a real server socket.

The edge cases that matter operationally:

- a full consume sees ``accepted`` first, ``progress`` frames with
  done/total, and exactly one terminal event;
- a client that disconnects mid-stream must not wedge the dispatcher
  thread (subsequent jobs still run) and its broker subscription must
  be reaped;
- heartbeats keep flowing on a quiet stream (job parked in the queue);
- the end-to-end trace proof: one job's trace records reconstruct into
  a Chrome trace with the queue-wait → dispatch → task → checkpoint
  span chain via the *existing* exporter.
"""

import http.client
import json
import threading
import time

import pytest

from repro.obs.export import trace_to_chrome
from repro.serve import ServeClient, ServeError, build_server
from repro.serve.telemetry import job_trace_to_trace, load_job_trace

SWEEP_PARAMS = {"n_values": [2, 3], "reps": 3, "max_steps": 100_000}


@pytest.fixture(autouse=True)
def _pinned_code_version(monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-events-v1")


@pytest.fixture
def server(tmp_path):
    srv = build_server(
        port=0,
        state_dir=str(tmp_path / "state"),
        workers=1,
        heartbeat=0.1,  # fast keep-alives so disconnects surface quickly
    )
    srv.start()
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.stop()
    thread.join(timeout=5)


@pytest.fixture
def client(server):
    return ServeClient(server.url)


def _trace_through_terminal(server, job_id, timeout=10.0):
    """The job trace once it holds ``job_id``'s ``terminal`` instant.

    ``GET /jobs/{id}`` reads DONE as soon as the queue finishes the job,
    just before the telemetry listener writes the job's ``dispatch`` span
    and ``terminal`` instant, so a trace read right after
    :meth:`ServeClient.wait` can miss both.  Past the deadline the trace
    is returned as it stands, for the caller's assertions to report.
    """
    deadline = time.monotonic() + timeout
    while True:
        records = load_job_trace(server.config.resolved_trace())
        if any(r["job"] == job_id and r["name"] == "terminal" for r in records):
            return records
        if time.monotonic() > deadline:
            return records
        time.sleep(0.01)


def test_full_stream_has_accepted_progress_and_one_terminal(tmp_path):
    # The dispatcher starts only once the stream has subscribed: a job
    # that ends before the subscription streams just ``accepted`` and
    # ``done``, by design, and fused lanes finish this one in milliseconds.
    srv = build_server(
        port=0, state_dir=str(tmp_path / "state"), workers=1, heartbeat=0.1
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServeClient(srv.url)
        job = client.submit("sweep", SWEEP_PARAMS)
        stream = client.stream_events(job["id"], timeout=60)
        first = next(stream)
        assert first["event"] == "accepted"
        assert first["data"]["state"] == "QUEUED"
        srv.start()
        events = [first, *stream]
    finally:
        srv.stop()
        thread.join(timeout=5)
    names = [e["event"] for e in events]
    assert names[0] == "accepted"
    assert events[0]["data"]["id"] == job["id"]
    progress = [e["data"] for e in events if e["event"] == "progress"]
    assert progress, f"no progress frames in {names}"
    assert progress[-1] == {"id": job["id"], "done": 6, "total": 6}
    dones = [d["done"] for d in progress]
    assert dones == sorted(dones)  # monotone progress
    terminals = [n for n in names if n in ("done", "failed", "shed")]
    assert terminals == ["done"]
    assert names[-1] == "done"  # stream ends right after the terminal


def test_streaming_a_finished_job_replays_terminal_immediately(
    server, client
):
    job = client.submit("sweep", SWEEP_PARAMS)
    client.wait(job["id"], timeout=60)
    events = list(client.stream_events(job["id"], timeout=10))
    names = [e["event"] for e in events]
    assert names == ["accepted", "done"]
    assert events[0]["data"]["state"] == "DONE"


def test_stream_of_unknown_job_is_404(server, client):
    with pytest.raises(ServeError) as excinfo:
        next(client.stream_events("no-such-job"))
    assert excinfo.value.status == 404


def test_failed_job_streams_failed_terminal(server, client):
    job = client.submit("sweep", {"n_values": [4], "reps": 1, "max_steps": 1})
    events = list(client.stream_events(job["id"], timeout=60))
    names = [e["event"] for e in events]
    assert names[-1] == "failed"
    assert names.count("failed") == 1


def test_heartbeats_flow_while_a_job_waits_in_the_queue(tmp_path):
    # Dispatcher deliberately not started: the job stays QUEUED, so the
    # only traffic on the stream is the keep-alive heartbeat.
    srv = build_server(
        port=0, state_dir=str(tmp_path / "state"), heartbeat=0.05
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServeClient(srv.url)
        job = client.submit("sweep", SWEEP_PARAMS)
        stream = client.stream_events(job["id"], timeout=10)
        frames = []
        for frame in stream:
            frames.append(frame)
            if sum(1 for f in frames if f["event"] == "heartbeat") >= 2:
                break
        stream.close()
        assert frames[0]["event"] == "accepted"
        assert frames[0]["data"]["state"] == "QUEUED"
        beats = [f for f in frames if f["event"] == "heartbeat"]
        assert len(beats) >= 2
        assert all("at" in b["data"] for b in beats)
    finally:
        srv.stop()
        thread.join(timeout=5)


def test_mid_stream_disconnect_does_not_wedge_the_dispatcher(server, client):
    first = client.submit("sweep", SWEEP_PARAMS)
    # Open the stream raw, read only the first frame, then drop the TCP
    # connection without closing the stream politely.
    conn = http.client.HTTPConnection(
        server.config.host, server.port, timeout=10
    )
    conn.request(
        "GET",
        f"/jobs/{first['id']}/events",
        headers={"Accept": "text/event-stream"},
    )
    response = conn.getresponse()
    assert response.status == 200
    assert response.headers["Content-Type"] == "text/event-stream"
    first_line = response.fp.readline().decode("utf-8")
    assert first_line.startswith("event: accepted")
    response.close()  # vanish mid-stream (drops the TCP connection)
    conn.close()

    # The dispatcher must shrug: this job and a subsequent one complete.
    assert client.wait(first["id"], timeout=60)["state"] == "DONE"
    second = client.submit("sweep", {**SWEEP_PARAMS, "reps": 2})
    assert client.wait(second["id"], timeout=60)["state"] == "DONE"

    # And the dead client's subscription is reaped once the handler
    # thread hits the broken pipe (a heartbeat at the latest).
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        if server.telemetry.broker.subscriber_count(first["id"]) == 0:
            break
        time.sleep(0.05)
    assert server.telemetry.broker.subscriber_count(first["id"]) == 0


def test_job_trace_records_the_full_span_chain(server, client):
    job = client.submit("sweep", SWEEP_PARAMS)
    assert client.wait(job["id"], timeout=60)["state"] == "DONE"
    records = _trace_through_terminal(server, job["id"])
    mine = [r for r in records if r["job"] == job["id"]]
    names = {r["name"] for r in mine}
    assert {"accepted", "queue-wait", "task", "checkpoint", "dispatch",
            "terminal"} <= names
    spans = {r["name"]: r for r in mine if r["type"] == "span"}
    # The span chain is causally ordered on the wall clock.
    assert spans["queue-wait"]["end"] <= spans["dispatch"]["end"]
    assert spans["dispatch"]["args"]["state"] == "DONE"
    checkpoint = spans["checkpoint"]
    assert checkpoint["args"]["records"] > 0
    assert checkpoint["args"]["recomputed"] == 6
    tasks = [r for r in mine if r["type"] == "span" and r["name"] == "task"]
    assert tasks and tasks[-1]["args"]["total"] == 6

    # The proof: the records rebuild into a renderable Chrome trace.
    chrome = trace_to_chrome(job_trace_to_trace(mine))
    slices = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
    assert {s["cat"] for s in slices} >= {
        "queue-wait", "dispatch", "task", "checkpoint"
    }
    json.dumps(chrome)


def test_cache_hit_resubmission_traces_no_second_dispatch(server, client):
    job = client.submit("sweep", SWEEP_PARAMS)
    client.wait(job["id"], timeout=60)
    before = _trace_through_terminal(server, job["id"])
    again = client.submit("sweep", SWEEP_PARAMS)
    assert again["cached"] is True
    after = load_job_trace(server.config.resolved_trace())
    assert len(after) == len(before)  # cached answers add no trace records
