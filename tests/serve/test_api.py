"""End-to-end API tests against an in-process server on an OS-picked port."""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.obs.ledger import RunLedger, make_record
from repro.parallel import available_workers
from repro.serve import ServeClient, ServeError, build_server
from tests.helpers import child_env

SRC = Path(__file__).resolve().parents[2] / "src"

SWEEP_PARAMS = {"n_values": [2, 3], "reps": 3, "max_steps": 100_000}


@pytest.fixture(autouse=True)
def _pinned_code_version(monkeypatch):
    """Job ids and ledger fingerprints stable across checkouts."""
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-serve-v1")


@pytest.fixture
def server(tmp_path, request):
    """An in-process server; ``indirect`` parametrization sets its workers
    (2 runs every job on the server's lifetime worker pool)."""
    workers = getattr(request, "param", 1)
    srv = build_server(port=0, state_dir=str(tmp_path / "state"), workers=workers)
    srv.start()
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.stop()
    thread.join(timeout=5)


@pytest.fixture
def client(server):
    return ServeClient(server.url)


def test_submit_wait_result_roundtrip(server, client):
    job = client.submit("sweep", SWEEP_PARAMS)
    assert job["state"] == "QUEUED"
    final = client.wait(job["id"], timeout=60)
    assert final["state"] == "DONE"
    assert final["progress"] == {"done": 6, "total": 6}
    result = client.result(job["id"])
    assert result["kind"] == "sweep"
    assert result["cells"] == 6
    assert result["steps_total"] > 0
    assert [row["n"] for row in result["table"]] == [2, 3]
    assert result["recomputed"] == 6 and result["cache_hits"] == 0


def test_resubmission_is_a_cache_hit(server, client):
    job = client.submit("sweep", SWEEP_PARAMS)
    client.wait(job["id"], timeout=60)
    again = client.submit("sweep", SWEEP_PARAMS)
    assert again["id"] == job["id"]
    assert again["state"] == "DONE"
    assert again["cached"] is True


def test_equivalent_specs_share_one_job_id(server, client):
    first = client.submit("sweep", SWEEP_PARAMS)
    # Same work, different key order and priority → same fingerprint.
    reordered = dict(reversed(list(SWEEP_PARAMS.items())))
    second = client.submit("sweep", reordered, priority="critical")
    assert second["id"] == first["id"]


@pytest.mark.parametrize("server", [1, 2], indirect=True)
def test_server_ledger_matches_cli_ledger_bytes(server, client, tmp_path):
    """The tentpole invariant: HTTP and CLI write identical ledger bytes."""
    job = client.submit("sweep", SWEEP_PARAMS)
    assert client.wait(job["id"], timeout=60)["state"] == "DONE"
    cli_ledger = tmp_path / "cli.jsonl"
    subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "sweep",
            "--n-values",
            "2,3",
            "--reps",
            "3",
            "--max-steps",
            "100000",
            "--ledger",
            str(cli_ledger),
        ],
        check=True,
        capture_output=True,
        env=child_env(SRC, REPRO_CODE_VERSION="test-serve-v1"),
    )
    server_ledger = server.config.resolved_ledger()
    assert server_ledger.read_bytes() == cli_ledger.read_bytes()


def test_bad_specs_get_400_with_reason(client):
    with pytest.raises(ServeError) as excinfo:
        client.submit("sweep", {"reps": 0})
    assert excinfo.value.status == 400
    assert "reps" in excinfo.value.body["error"]
    with pytest.raises(ServeError) as excinfo:
        client.submit("teleport")
    assert excinfo.value.status == 400


def test_unknown_routes_get_404(server, client):
    with pytest.raises(ServeError) as excinfo:
        client.job("no-such-job")
    assert excinfo.value.status == 404
    with pytest.raises(ServeError) as excinfo:
        client._request("GET", "/nope")
    assert excinfo.value.status == 404


def test_result_of_unfinished_job_is_409(server):
    # No dispatcher thread: build a server but never start() it, so the
    # job stays QUEUED and /result must refuse with the state.
    client = ServeClient(server.url)
    server.dispatcher.stop()  # freeze the queue (fixture started it)
    server.dispatcher.join(timeout=5)
    job = client.submit("sweep", {**SWEEP_PARAMS, "reps": 1})
    with pytest.raises(ServeError) as excinfo:
        client.result(job["id"])
    assert excinfo.value.status == 409
    assert "QUEUED" in excinfo.value.body["error"]


def test_health_and_metrics_shapes(server, client):
    health = client.health()
    assert health["status"] == "ok"
    assert set(health["jobs"]) == {"QUEUED", "RUNNING", "DONE", "FAILED", "SHED"}
    job = client.submit("sweep", SWEEP_PARAMS)
    client.wait(job["id"], timeout=60)
    metrics = client.metrics()
    assert metrics["queue"]["by_state"]["DONE"] == 1
    assert metrics["admission"]["admitted"] == 1
    assert metrics["engine"]["counters"]["serve.jobs{state=done}"] == 1


def test_health_reports_the_resolved_worker_count(tmp_path):
    srv = build_server(port=0, state_dir=str(tmp_path / "state"), workers=0)
    srv.start()
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        assert ServeClient(srv.url).health()["workers"] == available_workers()
    finally:
        srv.stop()
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.parametrize("server", [2], indirect=True)
def test_each_job_counts_only_its_own_cache_hits(server, client):
    """One ledger handle serves every job: a later job still sees cells a
    concurrent CLI run appended meanwhile, and reports only its own hits."""
    first = client.submit("sweep", SWEEP_PARAMS)
    assert client.wait(first["id"], timeout=60)["state"] == "DONE"
    assert client.result(first["id"])["recomputed"] == 6
    # Another writer files seed 3 for both n, as `repro sweep` would.
    config = {
        "experiment": "sweep:ads:steps",
        "protocol": "ads",
        "scheduler": "random",
        "metric": "steps",
        "max_steps": SWEEP_PARAMS["max_steps"],
    }
    other = RunLedger(server.config.resolved_ledger())
    for n in (2, 3):
        other.append(
            make_record(
                "sweep", "sweep:ads:steps", 3, {**config, "n": n}, {"value": 7.0}
            )
        )
    second = client.submit("sweep", {**SWEEP_PARAMS, "seed_base": 1})
    assert client.wait(second["id"], timeout=60)["state"] == "DONE"
    result = client.result(second["id"])
    # Seeds 1-2 from the first job, seed 3 from the other writer.
    assert (result["cache_hits"], result["recomputed"]) == (6, 0)


def test_stop_mid_job_stops_the_pool_and_leaves_the_job_for_requeue(tmp_path):
    """When stop() returns no pool worker is alive, and the job it cut
    short is neither DONE nor FAILED: the next boot requeues it."""
    import multiprocessing
    import time

    srv = build_server(port=0, state_dir=str(tmp_path / "state"), workers=2)
    srv.start()
    serving = threading.Thread(target=srv.serve_forever, daemon=True)
    serving.start()
    job_id = srv.submit(
        {"kind": "sweep", "params": {"n_values": [5, 6], "reps": 12}}
    )[1]["id"]
    deadline = time.monotonic() + 60
    while not (srv.queue.get(job_id).progress or {}).get("done"):
        assert time.monotonic() < deadline, "the job never made progress"
        time.sleep(0.01)
    workers = multiprocessing.active_children()
    assert workers
    stopping = threading.Thread(target=srv.stop)
    stopping.start()
    stopping.join(timeout=30)
    assert not stopping.is_alive()
    assert not any(worker.is_alive() for worker in workers)
    serving.join(timeout=5)
    assert not serving.is_alive()
    srv.dispatcher.join(timeout=30)
    assert not srv.dispatcher.is_alive()
    assert srv.queue.get(job_id).state == "RUNNING"


def test_stop_without_a_serve_loop_returns_and_stops_the_pool(tmp_path):
    """stop() after start() with no serve loop running (Ctrl-C during the
    start-up banner) must not wait for a loop that never ran."""
    import multiprocessing
    import time

    srv = build_server(port=0, state_dir=str(tmp_path / "state"), workers=2)
    srv.start()
    job_id = srv.submit({"kind": "sweep", "params": SWEEP_PARAMS})[1]["id"]
    deadline = time.monotonic() + 60
    while srv.queue.get(job_id).state != "DONE":
        assert time.monotonic() < deadline, "the job never finished"
        time.sleep(0.01)
    workers = multiprocessing.active_children()
    assert workers
    stopping = threading.Thread(target=srv.stop, daemon=True)
    stopping.start()
    stopping.join(timeout=5)
    assert not stopping.is_alive()
    assert not any(worker.is_alive() for worker in workers)


def test_ctrl_c_during_the_serve_banner_still_stops_the_server(tmp_path, monkeypatch):
    import signal

    from repro import cli
    from repro.serve.api import ReproServer

    stopped = []
    stop = ReproServer.stop

    def recording_stop(self):
        stopped.append(self)
        stop(self)

    def banner_print(*args, **kwargs):
        if args and str(args[0]).startswith("repro serve: listening on"):
            raise KeyboardInterrupt
        print(*args, **kwargs)

    monkeypatch.setattr(ReproServer, "stop", recording_stop)
    monkeypatch.setattr(cli, "print", banner_print, raising=False)
    sigterm = signal.getsignal(signal.SIGTERM)
    argv = ["serve", "--port", "0", "--workers", "2"]
    try:
        code = cli.main([*argv, "--state-dir", str(tmp_path / "state")])
    except KeyboardInterrupt:
        code = "KeyboardInterrupt escaped cmd_serve"
    finally:
        signal.signal(signal.SIGTERM, sigterm)
    assert code == 0
    assert len(stopped) == 1


def test_queue_full_answers_429(tmp_path):
    srv = build_server(
        port=0, state_dir=str(tmp_path / "state"), max_queued=0
    )
    # Dispatcher deliberately not started: the queue can only fill.
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServeClient(srv.url)
        with pytest.raises(ServeError) as excinfo:
            client.submit("sweep", SWEEP_PARAMS)
        assert excinfo.value.status == 429
        assert "queue full" in excinfo.value.body["error"]
    finally:
        srv.stop()
        thread.join(timeout=5)


def test_exhausted_budget_sheds_with_503_and_records_the_job(tmp_path):
    srv = build_server(
        port=0, state_dir=str(tmp_path / "state"), budget_tasks=1
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServeClient(srv.url)
        first = client.submit("sweep", SWEEP_PARAMS)  # fills the budget
        with pytest.raises(ServeError) as excinfo:
            client.submit("sweep", {**SWEEP_PARAMS, "reps": 4})
        assert excinfo.value.status == 503
        assert excinfo.value.body["state"] == "SHED"
        shed_id = excinfo.value.body["id"]
        assert shed_id != first["id"]
        # The refusal is recorded: the job exists, terminal, with reason.
        shed = client.job(shed_id)
        assert shed["state"] == "SHED"
        assert "budget exhausted" in shed["reason"]
        assert client.metrics()["queue"]["shed_rate"] == 1.0
    finally:
        srv.stop()
        thread.join(timeout=5)


def test_critical_jobs_still_admitted_under_exhausted_budget(tmp_path):
    srv = build_server(
        port=0, state_dir=str(tmp_path / "state"), budget_tasks=1
    )
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServeClient(srv.url)
        client.submit("sweep", SWEEP_PARAMS)
        job = client.submit(
            "sweep", {**SWEEP_PARAMS, "reps": 5}, priority="critical"
        )
        assert job["state"] == "QUEUED"
    finally:
        srv.stop()
        thread.join(timeout=5)


def test_failed_job_reports_its_error_and_requeues_on_resubmit(server, client):
    # seed_base chosen freely; an unknown-protocol failure is impossible
    # (schema-validated), so force failure via an unsatisfiable step cap:
    # every cell blows max_steps and raises, the job must FAIL with detail.
    params = {"n_values": [4], "reps": 1, "max_steps": 1}
    job = client.submit("sweep", params)
    final = client.wait(job["id"], timeout=60)
    assert final["state"] == "FAILED"
    assert final["error"]
    again = client.submit("sweep", params)
    assert again["id"] == job["id"]
    assert again["state"] == "QUEUED"  # resubmission requeues FAILED work
    assert client.wait(job["id"], timeout=60)["state"] == "FAILED"


def test_jobs_listing_shows_submission_order(server, client):
    a = client.submit("sweep", SWEEP_PARAMS)
    b = client.submit("sweep", {**SWEEP_PARAMS, "reps": 2})
    listed = client.jobs()
    assert [job["id"] for job in listed] == [a["id"], b["id"]]
    client.wait(a["id"], timeout=60)
    client.wait(b["id"], timeout=60)


@pytest.mark.parametrize("server", [1, 2], indirect=True)
def test_fuzz_and_campaign_and_chaos_kinds_run_to_done(server, client):
    fuzz = client.submit(
        "fuzz", {"n_values": [2], "runs_per_cell": 2}
    )
    campaign = client.submit("campaign")
    chaos = client.submit("chaos", {"runs_per_cell": 2})
    for job, kind in ((fuzz, "fuzz"), (campaign, "campaign"), (chaos, "chaos")):
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "DONE", (kind, final)
        result = client.result(job["id"])
        assert result["kind"] == kind
        assert result["ok"] is True


def test_http_body_is_json_all_the_way_down(server):
    # Raw socket-level check once, without the client conveniences.
    import urllib.request

    with urllib.request.urlopen(server.url + "/health", timeout=10) as resp:
        assert resp.headers["Content-Type"] == "application/json"
        json.loads(resp.read().decode("utf-8"))
