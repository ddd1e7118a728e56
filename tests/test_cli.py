"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import (
    _parse_inputs,
    _parse_plan,
    build_parser,
    main,
)
from repro.runtime import CrashPlan, RecoveryPlan


def test_parse_inputs():
    assert _parse_inputs("0,1,1") == [0, 1, 1]
    assert _parse_inputs("1") == [1]
    assert _parse_inputs("0,1,") == [0, 1]


def test_parse_crashes():
    plan = _parse_plan(["0:100", "2"], CrashPlan)
    assert plan.crash_at == {0: 100, 2: 0}
    assert _parse_plan([], CrashPlan) is None


def test_parse_restarts():
    plan = _parse_plan(["0:300", "2"], RecoveryPlan)
    assert plan.restart_at == {0: 300, 2: 0}
    assert _parse_plan([], RecoveryPlan) is None


def test_run_command_safe_exit_zero(capsys):
    code = main(["run", "--inputs", "0,1", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "decisions" in out
    assert "safety    : OK" in out


def test_run_cache_hit_prints_what_the_live_run_printed(tmp_path, capsys):
    argv = ["run", "--inputs", "0,1,1", "--seed", "4", "--crash", "1:5"]
    argv += ["--restart", "1:40", "--ledger", str(tmp_path / "ledger.jsonl")]
    assert main(argv) == 0
    live = capsys.readouterr().out.splitlines()
    assert main(argv) == 0
    replay = capsys.readouterr().out.splitlines()
    assert any(line.startswith("restarts  : ") for line in live)
    head, hit = replay[0][: len(live[0])], replay[0][len(live[0]) :]
    assert head == live[0]
    assert re.fullmatch(r"  \[ledger cache hit [0-9a-f]{12}\]", hit)
    assert replay[1:] == live[1:]


def test_run_command_every_protocol(capsys):
    for protocol in ("ads", "aspnes-herlihy", "local-coin", "atomic-coin"):
        code = main(["run", "--protocol", protocol, "--inputs", "1,0", "--seed", "1"])
        assert code == 0


def test_run_command_with_crash_and_lockstep(capsys):
    code = main(
        [
            "run",
            "--inputs",
            "0,1,1",
            "--seed",
            "2",
            "--scheduler",
            "lockstep",
            "--crash",
            "1:50",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "crashed   : [1]" in out


def test_run_command_timeline(capsys):
    code = main(["run", "--inputs", "0,1", "--seed", "5", "--timeline"])
    out = capsys.readouterr().out
    assert code == 0
    assert "scan" in out and "|" in out


def test_run_command_with_restart(capsys):
    code = main(
        [
            "run",
            "--inputs",
            "0,1,1",
            "--seed",
            "7",
            "--crash",
            "0:40",
            "--restart",
            "0:300",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "restarts  : {0: 1}" in out
    assert "crashed   : -" in out


def test_chaos_command_writes_json_report(tmp_path, capsys):
    report = tmp_path / "chaos.json"
    code = main(["chaos", "--runs-per-cell", "2", "--json", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "checker mutation campaign" in out
    assert "chaos: OK" in out
    import json

    payload = json.loads(report.read_text())
    assert payload["ok"] is True
    assert payload["campaign"]["holes"] == []
    assert payload["recovery_fuzz"]["runs"] > 0


def test_coin_command(capsys):
    code = main(["coin", "--n", "3", "--reps", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "disagree rate" in out


def test_coin_command_adversary(capsys):
    assert main(["coin", "--n", "2", "--reps", "3", "--adversary"]) == 0


def test_strip_command(capsys):
    code = main(["strip", "--moves", "8", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("claim-4.1 ok") == 8
    assert "final graph" in out


def test_experiments_command(capsys):
    code = main(["experiments"])
    out = capsys.readouterr().out
    assert code == 0
    for experiment_id in ("E1", "E12"):
        assert experiment_id in out


def test_profile_command_prints_throughput_and_sections(capsys):
    code = main(["profile", "--runs", "1", "--repeats", "1"])
    out = capsys.readouterr().out
    assert code == 0
    for workload in ("consensus", "scan", "coin"):
        assert workload in out
    for mode in ("bare", "metrics", "trace"):
        assert mode in out
    assert "wall-clock per section" in out
    assert "bare consensus throughput:" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_parser_help_mentions_commands():
    parser = build_parser()
    help_text = parser.format_help()
    for command in ("run", "coin", "strip", "experiments"):
        assert command in help_text


def test_report_command_prints_recorded_tables(capsys, tmp_path):
    (tmp_path / "e1.txt").write_text("E1 table\nrow\n")
    code = main(["report", "--results-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "E1 table" in out


def test_report_command_without_results(capsys, tmp_path):
    code = main(["report", "--results-dir", str(tmp_path / "nope")])
    assert code == 1
    assert "no recorded results" in capsys.readouterr().out


def test_metrics_command_prints_snapshot_table(capsys):
    code = main(["metrics", "--inputs", "0,1", "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "metrics snapshot" in out
    assert "consensus.decisions" in out
    assert "runtime.steps{pid=0}" in out


def test_metrics_command_json_is_deterministic(capsys):
    assert main(["metrics", "--inputs", "0,1", "--seed", "4", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["metrics", "--inputs", "0,1", "--seed", "4", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    import json

    payload = json.loads(first)
    assert set(payload) == {"counters", "gauges", "histograms"}


def test_metrics_command_filter(capsys):
    code = main(
        ["metrics", "--inputs", "0,1", "--seed", "0", "--filter", "consensus."]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "consensus.coin_flips" in out
    assert "registers.reads" not in out


def test_metrics_command_series_every_records_series(capsys):
    code = main(
        ["metrics", "--inputs", "0,1", "--seed", "0", "--series-every", "8"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "series" in out
    assert "runtime.steps{pid=0}" in out


def test_metrics_command_series_json_round_trips(capsys):
    args = ["metrics", "--inputs", "0,1", "--seed", "4", "--series-every", "8"]
    assert main([*args, "--json"]) == 0
    first = capsys.readouterr().out
    assert main([*args, "--json"]) == 0
    assert first == capsys.readouterr().out
    import json

    payload = json.loads(first)
    assert set(payload) == {"counters", "gauges", "histograms", "series"}
    some_series = payload["series"]["runtime.steps{pid=0}"]
    assert some_series["every"] == 8
    assert some_series["points"]


def test_report_command_out_writes_selfcontained_html(capsys, tmp_path):
    target = tmp_path / "report.html"
    args = [
        "report",
        "--out",
        str(target),
        "--inputs",
        "0,1",
        "--seed",
        "3",
        "--series-every",
        "32",
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert str(target) in out
    html = target.read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "http://" not in html and "https://" not in html
    assert "<script" not in html
    assert "Causal critical path" in html
    # byte-stability: a second run over the same inputs is identical
    first = html
    assert main(args) == 0
    capsys.readouterr()
    assert target.read_text() == first


def test_trace_command_exports_chrome_file(capsys, tmp_path):
    target = tmp_path / "trace.json"
    code = main(["trace", "--inputs", "0,1", "--seed", "0", "--export", str(target)])
    out = capsys.readouterr().out
    assert code == 0
    assert str(target) in out
    import json

    payload = json.loads(target.read_text())
    assert payload["traceEvents"]


def test_trace_command_exports_jsonl(capsys, tmp_path):
    target = tmp_path / "trace.jsonl"
    code = main(["trace", "--inputs", "0,1", "--seed", "0", "--export", str(target)])
    assert code == 0
    import json

    first_line = target.read_text().splitlines()[0]
    assert json.loads(first_line)["type"] in ("event", "span")


def test_sweep_command_prints_table(capsys):
    code = main(
        ["sweep", "--n-values", "2,3", "--reps", "2", "--metric", "rounds"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "rounds vs n" in out
    assert "mean" in out


def test_sweep_command_identical_across_worker_counts(capsys):
    def table(workers):
        assert (
            main(["sweep", "--n-values", "2,3", "--reps", "2", "--workers", workers])
            == 0
        )
        return capsys.readouterr().out.replace(f"workers={workers}", "workers=*")

    assert table("1") == table("2")


def test_sweep_title_reports_resolved_worker_count(monkeypatch, capsys):
    argv = ["sweep", "--n-values", "2", "--reps", "2"]
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert main(argv) == 0
    assert "workers=2)" in capsys.readouterr().out
    monkeypatch.delenv("REPRO_WORKERS")
    assert main(argv) == 0
    assert "workers=1)" in capsys.readouterr().out


def test_chaos_command_accepts_workers(tmp_path, capsys):
    report = tmp_path / "chaos.json"
    code = main(
        ["chaos", "--runs-per-cell", "2", "--workers", "2", "--json", str(report)]
    )
    assert code == 0
    assert report.exists()


def test_chaos_worker_crash_gate_counts_resolved_workers(
    tmp_path, monkeypatch, capsys
):
    import json

    from repro.parallel import engine

    report = tmp_path / "chaos.json"

    def chaos(*flags):
        report.unlink(missing_ok=True)
        argv = ["chaos", "--runs-per-cell", "2", "--retries", "1"]
        code = main([*argv, "--inject-worker-crash", "--json", str(report), *flags])
        capsys.readouterr()
        return code, json.loads(report.read_text()) if code == 0 else None

    # --workers 0 and REPRO_WORKERS=2 both resolve to two workers, so the
    # killed worker's cell is retried on the other one.
    monkeypatch.setattr(engine, "available_workers", lambda: 2)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    code, payload = chaos("--workers", "0")
    assert code == 0
    assert payload["resilience"]["retries"] >= 1
    monkeypatch.setenv("REPRO_WORKERS", "2")
    code, payload = chaos()
    assert code == 0
    assert payload["resilience"]["retries"] >= 1
    code, _ = chaos("--workers", "1")
    assert code == 2


def test_bench_command_lists_artifacts(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    (results / "BENCH_E0.json").write_text('{"experiment": "e0", "tables": []}')
    code = main(
        [
            "bench",
            "--results-dir",
            str(results),
            "--baselines-dir",
            str(tmp_path / "baselines"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "E0" in out
    assert "repro bench --check" in out


def test_bench_command_update_then_check(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    payload = '{"experiment": "e0", "tables": [{"title": "t", "rows": [{"v": 1}]}]}'
    (results / "BENCH_E0.json").write_text(payload)
    common = [
        "--results-dir",
        str(results),
        "--baselines-dir",
        str(tmp_path / "baselines"),
    ]
    assert main(["bench", "--update", *common]) == 0
    assert main(["bench", "--check", *common]) == 0
    out = capsys.readouterr().out
    assert "bench gate: OK" in out


def test_bench_command_check_flags_regression(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    baselines = tmp_path / "baselines"
    baselines.mkdir()
    base = '{"experiment": "e0", "tables": [{"title": "t", "rows": [{"v": 100}]}]}'
    drifted = '{"experiment": "e0", "tables": [{"title": "t", "rows": [{"v": 200}]}]}'
    (baselines / "BENCH_E0.json").write_text(base)
    (results / "BENCH_E0.json").write_text(drifted)
    code = main(
        [
            "bench",
            "--check",
            "--results-dir",
            str(results),
            "--baselines-dir",
            str(baselines),
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "REGRESSION" in out


def test_bench_command_check_without_baseline_fails(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    (results / "BENCH_E0.json").write_text('{"experiment": "e0", "tables": []}')
    code = main(
        [
            "bench",
            "--check",
            "--results-dir",
            str(results),
            "--baselines-dir",
            str(tmp_path / "nope"),
        ]
    )
    assert code == 1
    assert "repro bench --update" in capsys.readouterr().out
