"""Tests for the benchmark artifact helpers in ``benchmarks/_common.py``:
idempotent recording and the machine-readable BENCH_*.json artifacts."""

import importlib
import json
import sys
import pathlib

import pytest

BENCH_DIR = pathlib.Path(__file__).parent.parent / "benchmarks"


@pytest.fixture()
def common(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    module = importlib.import_module("_common")
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path)
    module.reset("etest")
    yield module
    module.reset("etest")
    sys.modules.pop("_common", None)


def test_record_is_idempotent_per_title(common, tmp_path, capsys):
    rows = [{"n": 3, "steps": 10}]
    common.record("etest", rows, "table A")
    common.record("etest", rows, "table A")  # rerun: replaces, not appends
    text = (tmp_path / "etest.txt").read_text()
    assert text.count("table A") == 1
    payload = json.loads(common.json_path("etest").read_text())
    assert payload["experiment"] == "etest"
    assert len(payload["tables"]) == 1
    assert payload["tables"][0]["rows"] == [{"n": 3, "steps": 10}]


def test_record_replaces_stale_titles_on_rerun(common, tmp_path):
    common.record("etest", [{"x": 1}], "old title (m=5)")
    common.reset("etest")  # what every benchmark does at run start
    common.record("etest", [{"x": 2}], "new title (m=9)")
    text = (tmp_path / "etest.txt").read_text()
    assert "old title" not in text and "new title" in text


def test_multiple_tables_accumulate_within_a_run(common, tmp_path):
    common.record("etest", [{"a": 1}], "first")
    common.record("etest", [{"b": 2}], "second")
    text = (tmp_path / "etest.txt").read_text()
    assert "first" in text and "second" in text
    payload = json.loads(common.json_path("etest").read_text())
    assert [t["title"] for t in payload["tables"]] == ["first", "second"]


def test_attach_metrics_lands_in_json_artifact(common):
    from repro import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("demo", pid=0).inc(7)
    common.record("etest", [{"r": 1}], "t")
    common.attach_metrics("etest", "ads", registry.snapshot())
    payload = json.loads(common.json_path("etest").read_text())
    assert payload["metrics"]["ads"]["counters"]["demo{pid=0}"] == 7


def test_reset_removes_both_artifacts(common, tmp_path):
    common.record("etest", [{"r": 1}], "t")
    txt = tmp_path / "etest.txt"
    js = common.json_path("etest")
    assert txt.exists() and js.exists()
    common.reset("etest")
    assert not txt.exists() and not js.exists()


def test_json_path_uppercases_experiment(common, tmp_path):
    assert common.json_path("e6").name == "BENCH_E6.json"


def test_artifact_carries_provenance_stamp(common):
    common.record("etest", [{"r": 1}], "t")
    payload = json.loads(common.json_path("etest").read_text())
    provenance = payload["provenance"]
    assert provenance["ledger_schema"] >= 1
    assert provenance["package"]
    assert "code_version" in provenance


def test_record_ledger_appends_once_per_identity(common, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-code-v1")
    ledger_path = tmp_path / "bench.jsonl"
    monkeypatch.setenv("REPRO_LEDGER", str(ledger_path))
    common.record("etest", [{"n": 3, "steps": 10}], "t")
    common.attach_timing("etest", "total", 1.0)
    assert common.record_ledger("etest") is True

    from repro.obs.ledger import read_records

    records = read_records(ledger_path)
    assert len(records) == 1
    record = records[0]
    assert record.kind == "bench"
    assert record.experiment == "bench:etest"
    assert record.outcome["tables"][0]["rows"] == [{"n": 3, "steps": 10}]
    # Host timings ride outside the deterministic identity...
    assert record.timings["total"]["wall_seconds"] == 1.0
    # ...so a rerun with different wall-clock is a cache hit, not a dupe.
    common.attach_timing("etest", "total", 99.0)
    assert common.record_ledger("etest") is False
    assert len(read_records(ledger_path)) == 1


def test_bench_command_cache_hits_the_record_of_record_ledger(
    common, tmp_path, monkeypatch, capsys
):
    """``repro bench --ledger`` files an artifact exactly as the benchmark
    did: same identity, same outcome, so nothing new is appended."""
    monkeypatch.setenv("REPRO_CODE_VERSION", "test-code-v1")
    ledger_path = tmp_path / "bench.jsonl"
    monkeypatch.setenv("REPRO_LEDGER", str(ledger_path))
    common.record("etest", [{"n": 3, "steps": 10, "wall_seconds": 0.5}], "t")
    common.attach_metrics("etest", "ads", {"counters": {"demo{pid=0}": 7}})
    common.attach_timing("etest", "total", 1.0)
    assert common.record_ledger("etest") is True
    capsys.readouterr()

    from repro.cli import main
    from repro.obs.ledger import read_records

    argv = ["bench", "--results-dir", str(tmp_path), "--baselines-dir"]
    argv += [str(tmp_path), "--experiments", "etest", "--ledger", str(ledger_path)]
    assert main(argv) == 0
    assert "appended 0 artifact record(s)" in capsys.readouterr().out
    assert len(read_records(ledger_path)) == 1


def test_record_ledger_off_without_env(common, monkeypatch):
    monkeypatch.delenv("REPRO_LEDGER", raising=False)
    common.record("etest", [{"n": 3}], "t")
    assert common.record_ledger("etest") is False
