"""Smoke test of the end-to-end benchmark: ``python -m pytest benchmarks/e2e``.

Runs ``run.py --smoke`` over all four workloads twice, untraced and traced,
the way the benchmark is used: as a program in a subprocess.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_benchmark(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``{trace: (summary line, result records, results path)}``."""
    results = {}
    for trace in ("0", "1"):
        out = tmp_path_factory.mktemp(f"trace{trace}") / "results.jsonl"
        done = run_benchmark("--smoke", "--trace", trace, "--out", str(out))
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        summary = json.loads(done.stdout.strip().splitlines()[-1])
        records = [json.loads(line) for line in out.read_text().splitlines()]
        results[trace] = (summary, records, out)
    return results


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(runs, trace, section):
    summary, _, _ = runs[trace]
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] > 0
    expected = {metric["name"]: metric["unit"] for metric in SPEC[section]}
    assert list(summary["metrics"]) == WORKLOADS
    for metrics in summary["metrics"].values():
        assert {name: m["unit"] for name, m in metrics.items()} == expected
        for metric in metrics.values():
            assert isinstance(metric["value"], (int, float))


def test_ledger_digests_are_stable_across_runs(runs):
    digests = [
        {record["workload"]: record["digest"] for record in runs[trace][1]}
        for trace in ("0", "1")
    ]
    assert list(digests[0]) == WORKLOADS
    assert digests[0] == digests[1]


def test_core_self_times_sum_to_the_profiled_total(runs):
    summary, _, _ = runs["1"]
    for workload, metrics in summary["metrics"].items():
        total = metrics["profile.total_s"]["value"]
        self_times = [m for name, m in metrics.items() if name.endswith(".self_s")]
        layers = sum(m["value"] for m in self_times)
        assert total > 0, workload
        assert abs(layers - total) <= 0.05 * total, (workload, layers, total)


def test_compare_gives_a_verdict_per_workload_and_metric(runs):
    done = run_benchmark("compare", str(runs["0"][2]), str(runs["1"][2]))
    assert done.returncode in (0, 1), done.stderr
    rows = done.stdout.strip().splitlines()[1:]
    assert len(rows) == len(WORKLOADS) * len(SPEC["end_to_end"])
    assert all(row.split()[-1] in ("ok", "worse", "unresolved") for row in rows)
