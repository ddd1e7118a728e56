#!/usr/bin/env python3
"""End-to-end campaign benchmark: from ``repro sweep`` or ``POST /jobs`` to
the last ledger record.

Four pinned workloads run through the surfaces users touch: the ``repro``
CLI in a fresh process, and a real ``repro serve`` process driven over HTTP
(README.md says why each was chosen)::

    python3 benchmarks/e2e/run.py                     # all four workloads
    python3 benchmarks/e2e/run.py --workload sweep-large --seed 3 --seconds 20
    python3 benchmarks/e2e/run.py --trace 1           # per-layer split
    python3 benchmarks/e2e/run.py --out a.jsonl       # keep the samples
    python3 benchmarks/e2e/run.py compare a.jsonl b.jsonl

Every selected workload is repeated, interleaved, for ``--seconds`` each and
at least three times; every repeat is a fresh process with a fresh ledger or
state dir, and the reported value is the median.  Timings are scaled to a
reference host speed that probe.py measures meanwhile (README.md, "Host
speed").  ``--trace 1`` adds one
traced repeat per workload (see host.py) and reports the per-layer metrics
instead.  Every ledger is checked (README.md, "Correctness"); a failed check
counts its operations as failed and makes the exit status 1.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
HOST = HERE / "host.py"
PROBE = HERE / "probe.py"
WORK = HERE / ".work"
BASELINE = HERE / "baseline.json"

#: The probe.py rate (reads per CPU-second) that defines the reference host
#: speed: gated timings are scaled to a host where the probe reads this fast.
REFERENCE_RATE = 1_000_000

#: Every child runs under this code version, so ledger fingerprints and job
#: ids do not depend on the commit and the default-seed digests can be pinned.
CODE_VERSION = "bench"

#: The deterministic fields of a ledger line.  Provenance is left out: it
#: carries the git SHA.
DIGEST_FIELDS = ("fingerprint", "experiment", "seed", "config", "outcome", "metrics")

MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
TERMINAL_EVENTS = ("done", "failed", "shed")

#: End-to-end metrics: name -> (unit, better).  Totals such as wall time
#: scale with the work the seeds draw, so the gated values are per step.
#: Timings are scaled by the host speed measured during the repeat.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "sim_steps_per_s": ("steps/s", "higher"),
    "cpu_us_per_step": ("us/step", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Printed beside the end-to-end metrics, not gated: raw measurements and
#: the host speed (probe rate over ``REFERENCE_RATE``) that scaled them.
TOTALS = {"wall_s": "s", "cpu_s": "s", "steps": "steps", "host_speed": "ratio"}

CORE_LAYERS = (
    "runtime",
    "registers",
    "snapshot",
    "coin",
    "strip",
    "consensus",
    "obs.metrics",
    "batch",
    "other",
)

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in CORE_LAYERS},
    "profile.total_s": "s",
    "registers.audit_self_s": "s",
    "batch.lanes": "count",
    "batch.fallback_frac": "ratio",
    "runtime.steps": "steps",
    "registers.audit_calls": "count",
    "strip.decode_calls": "count",
    "parallel.forks": "count",
    "parallel.run_tasks_s": "s",
    "parallel.parent_cpu_s": "s",
    "parallel.worker_cpu_s": "s",
    "parallel.worker_cpu_ms_per_cell": "ms",
    "obs.ledger.records": "count",
    "obs.ledger.record_ms": "ms",
    "obs.ledger.append_ms": "ms",
    "resilience.checkpoint_ms": "ms",
    "obs.ledger.load_ms_p50": "ms",
    "obs.ledger.load_ms_max": "ms",
    "obs.ledger.cache_hit_frac": "ratio",
    "serve.submit_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.execute_ms_p50": "ms",
    "serve.execute_ms_p90": "ms",
    "serve.notify_ms": "ms",
    "serve.job_latency_p50_s": "s",
    "serve.job_latency_p90_s": "s",
    "serve.latency_growth": "ratio",
    "trace.overhead_frac": "ratio",
}

#: Layer rows measured in the parent process only on pooled workloads.
WORKER_SIDE = {
    *(f"{layer}.self_s" for layer in CORE_LAYERS),
    "profile.total_s",
    "registers.audit_self_s",
    "registers.audit_calls",
    "strip.decode_calls",
}


@dataclass(frozen=True)
class Workload:
    """One pinned campaign.

    A CLI workload runs ``repro sweep`` over ``n_values`` x ``reps`` seeds.
    ``jobs > 0`` makes it a closed-loop serve workload: job ``j`` sweeps
    ``reps`` seeds from ``seed + stride * j``.  ``check_flags`` and
    ``check_reps`` name the untimed reference sweep whose records must equal
    the matching records of this workload.
    """

    name: str
    n_values: tuple[int, ...]
    reps: int
    flags: tuple[str, ...] = ()
    jobs: int = 0
    stride: int = 0
    check_flags: tuple[str, ...] = ()
    check_reps: int = 0

    @property
    def serve(self) -> bool:
        return self.jobs > 0

    @property
    def pooled(self) -> bool:
        return self.serve or "--workers" in self.flags

    @property
    def seeds(self) -> int:
        """Seeds per ``n`` that the workload's ledger covers."""
        if self.serve:
            return self.stride * (self.jobs - 1) + self.reps
        return self.reps

    @property
    def operations(self) -> int:
        """Jobs for serve, cells for the CLI."""
        return self.jobs if self.serve else len(self.n_values) * self.reps

    def sweep_args(self, reps: int, seed: int) -> list[str]:
        return [
            "sweep",
            "--n-values",
            ",".join(map(str, self.n_values)),
            "--reps",
            str(reps),
            "--seed-base",
            str(seed),
        ]


def _workloads(large: int, batched: int, pool: int, jobs: int, job_reps: int):
    serve_seeds = job_reps // 2 * (jobs - 1) + job_reps
    return {
        workload.name: workload
        for workload in (
            Workload(
                "sweep-large",
                (6, 8),
                large,
                check_flags=("--batch", "16"),
                check_reps=large,
            ),
            Workload(
                "sweep-batched",
                (6, 8),
                batched,
                ("--batch", "16"),
                check_reps=large,
            ),
            Workload(
                "sweep-small-pool",
                (2, 3),
                pool,
                ("--workers", "2"),
                check_reps=serve_seeds,
            ),
            Workload(
                "serve-closed",
                (2, 3),
                job_reps,
                jobs=jobs,
                stride=job_reps // 2,
                check_flags=("--workers", "2"),
                check_reps=serve_seeds,
            ),
        )
    }


#: Pinned sizes: one repeat takes 2 to 4 s on a 2-CPU host.  Never scale
#: them by time; ``--seconds`` only sets how many repeats run.
WORKLOADS = _workloads(large=12, batched=120, pool=500, jobs=160, job_reps=2)
SMOKE_WORKLOADS = _workloads(large=2, batched=32, pool=60, jobs=12, job_reps=2)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no source tree, import fails)."""


@dataclass
class Repeat:
    """One run of one workload: its measured values and what was checked."""

    values: dict[str, float] = field(default_factory=dict)
    identities: dict[str, str] = field(default_factory=dict)
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    failed_jobs: int = 0
    latencies: list[float] = field(default_factory=list)
    terminal_at: dict[str, float] = field(default_factory=dict)
    trace: dict | None = None


# -- small helpers -------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """The ``q``-th percentile of ``values`` (0 when empty)."""
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def host_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def read_ledger(path: pathlib.Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def identity(record: dict) -> str:
    fields = {key: record.get(key) for key in DIGEST_FIELDS}
    return json.dumps(fields, sort_keys=True, separators=(",", ":"))


def read_report(path: pathlib.Path, repeat: Repeat) -> dict:
    """The host's exit report (``ready``, ``peak_rss_kb``)."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        repeat.problems.append("the host wrote no exit report")
        return {}


def tail(path: pathlib.Path, lines: int = 5) -> str:
    try:
        text = path.read_text(errors="replace")
    except OSError:
        return ""
    return " | ".join(text.splitlines()[-lines:])


def reap(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc``; its rusage covers every descendant it reaped."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def alive(proc: subprocess.Popen) -> bool:
    flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
    return os.waitid(os.P_PID, proc.pid, flags) is None


class HostSpeed:
    """probe.py running beside the workloads, and the samples it writes."""

    def __init__(self):
        handle, path = tempfile.mkstemp(prefix="probe-", suffix=".txt", dir=WORK)
        self.samples = pathlib.Path(path)
        with os.fdopen(handle, "w") as out:
            self.proc = subprocess.Popen([sys.executable, str(PROBE)], stdout=out)
        deadline = time.monotonic() + 60.0
        while not self.during(0.0, float("inf")):
            if time.monotonic() > deadline or not alive(self.proc):
                self.close()
                raise SetupError("the host-speed probe wrote no sample")
            time.sleep(0.05)

    def during(self, start: float, end: float) -> float:
        """Host speed over ``[start, end]`` relative to the reference host:
        the median probe rate over ``REFERENCE_RATE`` (0 without samples)."""
        rates = []
        # Complete lines only: the probe may be halfway through writing one.
        for line in self.samples.read_text().split("\n")[:-1]:
            stamp, _cpu, rate = line.split()
            if start <= float(stamp) <= end:
                rates.append(float(rate))
        return median(rates) / REFERENCE_RATE

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.samples.unlink(missing_ok=True)


# -- the serve client (HTTP API only) ------------------------------------------


def http_json(port: int, method: str, path: str, payload=None, timeout=60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


def wait_terminal(port: int, job_id: str, timeout: float = 120.0):
    """Follow ``GET /jobs/{id}/events`` to the terminal frame.

    Returns the terminal event name and the instant its frame was read."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Accept": "text/event-stream"}
        conn.request("GET", f"/jobs/{job_id}/events", headers=headers)
        response = conn.getresponse()
        event = None
        while True:
            line = response.readline()
            if not line:
                return "eof", time.monotonic()
            line = line.decode().rstrip("\r\n")
            if line.startswith("event:"):
                event = line[len("event:") :].strip()
            elif not line:
                if event in TERMINAL_EVENTS:
                    return event, time.monotonic()
                event = None
    finally:
        conn.close()


# -- running one repeat --------------------------------------------------------


class Runner:
    """Runs repeats of the workloads for one seed, in fresh processes."""

    def __init__(self, seed: int):
        self.seed = seed
        self.speed: HostSpeed | None = None
        self.env = {
            key: value
            for key, value in os.environ.items()
            if not key.startswith("REPRO_")
        }
        self.env["REPRO_CODE_VERSION"] = CODE_VERSION
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def prepare(self) -> None:
        """Fail fast outside a checkout, warm the bytecode cache (untimed)
        and start the host-speed probe."""
        if not (ROOT / "src" / "repro" / "__init__.py").is_file():
            raise SetupError(f"no repro source tree under {ROOT / 'src'}")
        imported = subprocess.run(
            [
                sys.executable,
                "-c",
                "import repro, repro.cli, repro.serve, repro.batch, "
                "repro.analysis.experiment; print(repro.__file__)",
            ],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if imported.returncode != 0:
            raise SetupError(f"cannot import repro: {imported.stderr[-500:]}")
        location = pathlib.Path(imported.stdout.strip()).resolve()
        if ROOT / "src" not in location.parents:
            raise SetupError(f"repro imports from {location}, not this checkout")
        WORK.mkdir(parents=True, exist_ok=True)
        self.speed = HostSpeed()

    def close(self) -> None:
        if self.speed is not None:
            self.speed.close()

    def trace_path(self, workload: Workload) -> pathlib.Path:
        return WORK / "traces" / f"{workload.name}-seed{self.seed}.json"

    def repeat(self, workload: Workload, traced: bool) -> Repeat:
        scratch = pathlib.Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
        try:
            run = self._serve if workload.serve else self._cli
            repeat = run(workload, traced, scratch)
            trace_file = scratch / "trace.json"
            if traced and trace_file.exists():
                repeat.trace = json.loads(trace_file.read_text())
                self.trace_path(workload).parent.mkdir(exist_ok=True)
                shutil.copy(trace_file, self.trace_path(workload))
            elif traced:
                repeat.problems.append("the traced run wrote no trace")
            return repeat
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def _spawn(self, argv: list[str], scratch: pathlib.Path, traced: bool):
        command = [sys.executable, str(HOST), "--report", str(scratch / "report")]
        if traced:
            command += ["--trace-dir", str(scratch)]
        command += ["--", *argv]
        with open(scratch / "stdout", "wb") as out:
            with open(scratch / "stderr", "wb") as err:
                spawned = time.monotonic()
                proc = subprocess.Popen(
                    command,
                    cwd=ROOT,
                    env=self.env,
                    stdout=out,
                    stderr=err,
                )
        return proc, spawned

    def _cli(self, workload: Workload, traced: bool, scratch: pathlib.Path):
        ledger = scratch / "ledger.jsonl"
        argv = workload.sweep_args(workload.reps, self.seed)
        argv += [*workload.flags, "--ledger", str(ledger)]
        proc, spawned = self._spawn(argv, scratch, traced)
        code, usage = reap(proc, CHILD_TIMEOUT_S)
        ended = time.monotonic()
        repeat = Repeat()
        if code != 0:
            repeat.problems.append(f"exit status {code}: {tail(scratch / 'stderr')}")
        report = read_report(scratch / "report", repeat)
        if "ready" not in report:
            repeat.problems.append("the CLI never parsed its arguments")
        timing = (spawned, report.get("ready", spawned), ended)
        self._settle(repeat, workload, read_ledger(ledger), timing, usage, report)
        return repeat

    def _serve(self, workload: Workload, traced: bool, scratch: pathlib.Path):
        state = scratch / "state"
        argv = ["serve", "--port", "0", "--workers", "2", "--state-dir", str(state)]
        proc, spawned = self._spawn(argv, scratch, traced)
        repeat = Repeat()
        try:
            port = self._await_port(proc, scratch / "stdout")
            ready = self._await_health(port)
            ended = self._closed_loop(workload, port, repeat)
        except (OSError, ValueError, KeyError, http.client.HTTPException) as exc:
            repeat.problems.append(f"serve: {exc}: {tail(scratch / 'stderr')}")
            repeat.failed_jobs = workload.jobs
            ready = ended = time.monotonic()
        finally:
            if alive(proc):
                proc.send_signal(signal.SIGINT)
            code, usage = reap(proc, 30.0)
        if code != 0:
            repeat.problems.append(f"serve exit status {code}")
        report = read_report(scratch / "report", repeat)
        records = read_ledger(state / "ledger.jsonl")
        timing = (spawned, ready, ended)
        self._settle(repeat, workload, records, timing, usage, report)
        return repeat

    def _await_port(self, proc: subprocess.Popen, stdout: pathlib.Path) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            for line in stdout.read_text(errors="replace").splitlines():
                if "listening on http://" in line:
                    return int(line.rsplit(":", 1)[1])
            if not alive(proc):
                raise ValueError("the server exited during start-up")
            time.sleep(0.002)
        raise TimeoutError("the server did not start listening")

    def _await_health(self, port: int) -> float:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            try:
                status, _ = http_json(port, "GET", "/health", timeout=5.0)
            except ConnectionError:
                status = 0
            if status == 200:
                return time.monotonic()
            time.sleep(0.002)
        raise TimeoutError("GET /health never answered 200")

    def _closed_loop(self, workload: Workload, port: int, repeat: Repeat) -> float:
        """One client: submit a job, wait for its terminal frame, repeat."""
        jobs = []
        ended = time.monotonic()
        for index in range(workload.jobs):
            params = {
                "n_values": list(workload.n_values),
                "reps": workload.reps,
                "seed_base": self.seed + workload.stride * index,
            }
            spec = {"kind": "sweep", "params": params}
            submitted = time.monotonic()
            status, body = http_json(port, "POST", "/jobs", spec)
            if status != 202:
                repeat.failed_jobs += 1
                repeat.problems.append(f"POST /jobs answered {status}: {body}")
                continue
            event, ended = wait_terminal(port, body["id"])
            repeat.latencies.append(ended - submitted)
            repeat.terminal_at[body["id"]] = ended
            jobs.append((index, body["id"], event))
        cells = len(workload.n_values) * workload.reps
        overlap = len(workload.n_values) * (workload.reps - workload.stride)
        for index, job_id, event in jobs:
            status, body = http_json(port, "GET", f"/jobs/{job_id}/result")
            result = (body or {}).get("result") or {}
            hits = overlap if index else 0
            if (
                event != "done"
                or status != 200
                or result.get("cells") != cells
                or result.get("cache_hits") != hits
            ):
                repeat.failed_jobs += 1
                repeat.problems.append(
                    f"job {index} ended {event} (HTTP {status}) with "
                    f"cells={result.get('cells')} "
                    f"cache_hits={result.get('cache_hits')}, expected {hits}"
                )
        return ended

    def _settle(self, repeat, workload, records, timing, usage, report) -> None:
        """Check the ledger and derive the repeat's metric values; timings
        are scaled to the reference host speed."""
        spawned, ready, ended = timing
        repeat.problems += check_cells(workload, self.seed, records)
        repeat.identities = {r["fingerprint"]: identity(r) for r in records}
        lines = "\n".join(identity(record) for record in records)
        repeat.digest = hashlib.sha256(lines.encode()).hexdigest()
        steps = sum(record["outcome"]["value"] for record in records)
        wall = max(ended - ready, 1e-9)
        cpu = usage.ru_utime + usage.ru_stime
        speed = self.speed.during(spawned, ended)
        if not speed:
            repeat.problems.append("no host-speed sample during the repeat")
            speed = 1.0
        repeat.values = {
            "setup_s": (ready - spawned) * speed,
            "sim_steps_per_s": steps / wall / speed,
            "cpu_us_per_step": cpu / steps * 1e6 * speed if steps else 0.0,
            "peak_rss_mb": report.get("peak_rss_kb", 0) / 1024,
            "wall_s": wall,
            "cpu_s": cpu,
            "steps": steps,
            "host_speed": speed,
        }

    def reference(self, workload: Workload) -> tuple[dict[str, str], list[str]]:
        """Run the untimed reference sweep; its records' identities."""
        scratch = pathlib.Path(tempfile.mkdtemp(prefix="check-", dir=WORK))
        try:
            ledger = scratch / "ledger.jsonl"
            argv = workload.sweep_args(workload.check_reps, self.seed)
            argv += [*workload.check_flags, "--ledger", str(ledger)]
            done = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            problems = []
            if done.returncode != 0:
                problems.append(f"the reference sweep failed: {done.stderr[-300:]}")
            records = read_ledger(ledger)
            return {r["fingerprint"]: identity(r) for r in records}, problems
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


def check_cells(workload: Workload, seed: int, records: list[dict]) -> list[str]:
    """The ledger holds exactly the workload's cells, each with a value."""
    cells = [(r.get("config", {}).get("n"), r.get("seed")) for r in records]
    offsets = range(workload.seeds)
    expected = {(n, seed + offset) for n in workload.n_values for offset in offsets}
    problems = []
    if len(cells) != len(set(cells)) or set(cells) != expected:
        problems.append(
            f"the ledger holds {len(cells)} records over {len(set(cells))} "
            f"cells, expected the workload's {len(expected)} cells"
        )
    if any(not r.get("outcome", {}).get("value", 0) > 0 for r in records):
        problems.append("a ledger record has no positive outcome value")
    return problems


# -- one invocation ------------------------------------------------------------


@dataclass
class Outcome:
    """Everything measured and checked for one workload in one invocation."""

    workload: Workload
    repeats: list[Repeat]
    traced: Repeat | None
    problems: list[str]

    @property
    def all_repeats(self) -> list[Repeat]:
        return self.repeats + ([self.traced] if self.traced else [])

    @property
    def attempted(self) -> int:
        return self.workload.operations * len(self.all_repeats)

    @property
    def failed(self) -> int:
        """A failed job counts once; any other failed check fails every
        operation of its repeat, or of the invocation."""
        if self.problems:
            return self.attempted
        return sum(
            repeat.failed_jobs or self.workload.operations
            for repeat in self.all_repeats
            if repeat.problems
        )

    @property
    def correct(self) -> bool:
        return not self.problems and not any(r.problems for r in self.all_repeats)

    def samples(self, metric: str) -> list[float]:
        return [repeat.values.get(metric, 0.0) for repeat in self.repeats]

    def end_to_end(self) -> dict[str, float]:
        return {metric: median(self.samples(metric)) for metric in END_TO_END}


def run_invocation(
    workloads: list[Workload],
    runner: Runner,
    seconds: float,
    min_repeats: int,
    trace: bool,
    pinned: dict[str, str],
) -> list[Outcome]:
    """Rounds of one repeat per workload (A B C D A B C D ...) until the
    time budget is spent, at least ``min_repeats`` rounds; then one traced
    repeat each when asked; then the correctness checks."""
    repeats: dict[str, list[Repeat]] = {w.name: [] for w in workloads}
    budget = seconds * len(workloads)
    started = time.monotonic()
    longest = rounds = 0
    while rounds < min_repeats or time.monotonic() - started + longest <= budget:
        round_started = time.monotonic()
        rounds += 1
        for workload in workloads:
            print(f"e2e: {workload.name} repeat {rounds}", file=sys.stderr)
            repeats[workload.name].append(runner.repeat(workload, traced=False))
        longest = max(longest, time.monotonic() - round_started)
    outcomes = []
    for workload in workloads:
        traced = None
        if trace:
            print(f"e2e: {workload.name} traced repeat", file=sys.stderr)
            traced = runner.repeat(workload, traced=True)
        reference, problems = runner.reference(workload)
        outcome = Outcome(workload, repeats[workload.name], traced, problems)
        pin = pinned.get(workload.name)
        outcome.problems += invocation_checks(outcome, reference, pin)
        outcomes.append(outcome)
    return outcomes


def invocation_checks(outcome: Outcome, reference: dict, pinned) -> list[str]:
    """Equal digests across repeats (traced included), the pinned digest at
    the default seed, and equal records where the reference path overlaps."""
    problems = []
    digests = {repeat.digest for repeat in outcome.all_repeats}
    if len(digests) != 1:
        problems.append(f"ledger digests differ across repeats: {sorted(digests)}")
    if pinned and pinned not in digests:
        problems.append(f"the ledger digest is not the pinned {pinned[:12]}")
    records = outcome.repeats[0].identities
    differ = [fp for fp, line in reference.items() if records.get(fp) != line]
    if differ or not reference:
        problems.append(
            f"{len(differ)} of {len(reference)} reference records differ "
            f"from {outcome.workload.name}'s"
        )
    return problems


# -- per-layer metrics from the traced repeat ----------------------------------


def durations_ms(spans: list[dict], name: str) -> list[float]:
    return [span["dur"] / 1000 for span in spans if span["name"] == name]


def layer_metrics(outcome: Outcome) -> dict[str, float]:
    traced = outcome.traced
    trace = traced.trace or {"traceEvents": [], "otherData": {}}
    spans = trace["traceEvents"]
    other = trace["otherData"]
    profile = other.get("profile", {"self_s": {}})

    def total(name, key):
        return sum(span["args"][key] for span in spans if span["name"] == name)

    def p50_ms(name):
        return median(durations_ms(spans, name))

    appends = [span for span in spans if span["name"] == "obs.ledger.append"]
    records = sum(1 for span in appends if span["args"]["written"])
    lanes = total("batch.run_lanes", "lanes")
    probes = [span for span in spans if span["name"] == "obs.ledger.cached"]
    hits = sum(1 for span in probes if span["args"]["hit"])
    run_tasks_s = sum(durations_ms(spans, "parallel.run_tasks")) / 1000
    worker_cpu = total("parallel.run_tasks", "children_cpu_s")
    loads = durations_ms(spans, "obs.ledger.load")
    metrics = {
        f"{layer}.self_s": profile["self_s"].get(layer, 0.0) for layer in CORE_LAYERS
    }
    metrics.update(
        {
            "profile.total_s": profile.get("total_s", 0.0),
            "registers.audit_self_s": profile.get("audit_self_s", 0.0),
            "batch.lanes": lanes,
            "batch.fallback_frac": (
                total("batch.run_lanes", "fallbacks") / lanes if lanes else 0.0
            ),
            "runtime.steps": traced.values.get("steps", 0.0),
            "registers.audit_calls": profile.get("audit_calls", 0),
            "strip.decode_calls": profile.get("decode_calls", 0),
            "parallel.forks": other.get("forks", 0),
            "parallel.run_tasks_s": run_tasks_s,
            "parallel.parent_cpu_s": total("parallel.run_tasks", "thread_cpu_s"),
            "parallel.worker_cpu_s": worker_cpu,
            "parallel.worker_cpu_ms_per_cell": (
                worker_cpu * 1000 / records if records else 0.0
            ),
            "obs.ledger.records": records,
            "obs.ledger.record_ms": p50_ms("obs.ledger.make_record"),
            "obs.ledger.append_ms": p50_ms("obs.ledger.append"),
            "resilience.checkpoint_ms": p50_ms("resilience.checkpoint"),
            "obs.ledger.load_ms_p50": median(loads),
            "obs.ledger.load_ms_max": max(loads, default=0.0),
            "obs.ledger.cache_hit_frac": hits / len(probes) if probes else 0.0,
        }
    )
    metrics.update(serve_metrics(outcome, spans))
    def reference_wall(repeat):
        """Wall time at the reference host speed, as the gated metrics are."""
        return repeat.values["wall_s"] * repeat.values["host_speed"]

    untraced = median(reference_wall(repeat) for repeat in outcome.repeats)
    metrics["trace.overhead_frac"] = reference_wall(traced) / untraced - 1
    return metrics


def serve_metrics(outcome: Outcome, spans: list[dict]) -> dict[str, float]:
    """Serve-layer timings: server spans of the traced repeat, and job
    latencies from the client side of the untraced repeats (median over
    repeats).  Zero on the CLI workloads, which run no server."""
    if not outcome.workload.serve:
        return {name: 0.0 for name in PER_LAYER if name.startswith("serve.")}

    def ends(name):
        return {
            span["args"]["job"]: (span["ts"] + span["dur"]) / 1e6
            for span in spans
            if span["name"] == name
        }

    enqueued = ends("serve.enqueue")
    claimed = ends("serve.claim")
    finished = ends("serve.finish")
    terminal = outcome.traced.terminal_at
    waits = [claimed[job] - enqueued[job] for job in claimed if job in enqueued]
    notifies = [terminal[job] - finished[job] for job in finished if job in terminal]
    executes = durations_ms(spans, "serve.execute")
    latencies = [repeat.latencies for repeat in outcome.repeats]
    window = 16  # the first and the last jobs compared by latency_growth

    def growth(values):
        if len(values) < 2 * window:
            return 0.0
        return median(values[-window:]) / median(values[:window])

    return {
        "serve.submit_ms": median(durations_ms(spans, "serve.submit")),
        "serve.queue_wait_ms": median(waits) * 1000,
        "serve.execute_ms_p50": percentile(executes, 50),
        "serve.execute_ms_p90": percentile(executes, 90),
        "serve.notify_ms": median(notifies) * 1000,
        "serve.job_latency_p50_s": median(percentile(v, 50) for v in latencies),
        "serve.job_latency_p90_s": median(percentile(v, 90) for v in latencies),
        "serve.latency_growth": median(growth(values) for values in latencies),
    }


# -- reporting -----------------------------------------------------------------


def fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


def print_end_to_end(outcome: Outcome, seed: int) -> None:
    workload = outcome.workload
    unit = "jobs" if workload.serve else "cells"
    print(
        f"\n{workload.name}: {len(outcome.repeats)} repeats, seed {seed}, "
        f"{workload.operations} {unit} each, "
        f"ledger digest {outcome.repeats[0].digest[:12]}"
    )
    print(f"  {'metric':<18} {'unit':<8} {'median':>12} {'min':>12} {'max':>12}")
    rows = {name: unit for name, (unit, _) in END_TO_END.items()} | TOTALS
    for metric, unit in rows.items():
        values = outcome.samples(metric)
        print(
            f"  {metric:<18} {unit:<8} {fmt(median(values)):>12} "
            f"{fmt(min(values)):>12} {fmt(max(values)):>12}"
        )
    if workload.serve:
        pairs = [
            f"{fmt(percentile(r.latencies, 50))}/{fmt(percentile(r.latencies, 90))}"
            for r in outcome.repeats
        ]
        print(f"  job latency p50/p90 (s) of each repeat: {' '.join(pairs)}")
    problems = outcome.problems + [p for r in outcome.all_repeats for p in r.problems]
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")


def print_layers(outcome: Outcome, metrics: dict[str, float], trace_file) -> None:
    workload = outcome.workload
    print(f"\n{workload.name}: per-layer split of one traced repeat ({trace_file})")
    if workload.pooled:
        print(
            "  core rows: the parent process only; the worker-side split is "
            "not measured (it is the same code as sweep-large's)"
        )
    for name, unit in PER_LAYER.items():
        value = fmt(metrics[name])
        if name.startswith("serve.") and not workload.serve:
            value = "n/a (no server)"
        elif workload.pooled and name in WORKER_SIDE:
            value += "  (parent only; worker side not measured)"
        print(f"  {name:<34} {unit:<6} {value}")
    trace = outcome.traced.trace or {"otherData": {}}
    missing = trace["otherData"].get("missing_hooks")
    if missing:
        print(f"  not measured, hook missing: {', '.join(missing)}")


def result_record(outcome: Outcome, args, layers) -> dict:
    """One ``--out`` line: the medians and every repeat's values."""
    names = [*END_TO_END, *TOTALS]
    return {
        "workload": outcome.workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": host_facts(),
        "repeats": len(outcome.repeats),
        "values": {name: outcome.samples(name) for name in names},
        "metrics": {**outcome.end_to_end(), **(layers or {})},
        "digest": outcome.repeats[0].digest,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }


# -- compare -------------------------------------------------------------------


def load_results(path: str) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = {}
    for line in pathlib.Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            grouped.setdefault(record["workload"], []).append(record)
    return grouped


def summarize(records: list[dict], metric: str) -> dict[str, float]:
    """Median and quartiles over one sample per invocation (its median)
    when a file holds several, else over the repeats of its one invocation."""
    if len(records) > 1:
        values = [record["metrics"][metric] for record in records]
    else:
        values = records[0]["values"][metric]
    mid = median(values)
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / mid if mid else 0.0
    return {"median": mid, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """``unresolved`` when either side spreads wider than the bound, else
    ``worse`` when B's median is worse than A's by more than the bound."""
    if max(a["spread"], b["spread"]) > bound:
        return "unresolved"
    change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
    worse = change if better == "lower" else -change
    return "worse" if worse > bound else "ok"


def compare(path_a: str, path_b: str) -> int:
    bounds = {metric["name"]: metric for metric in benchmark_spec()["end_to_end"]}
    a, b = load_results(path_a), load_results(path_b)
    print(
        f"{'workload':<17} {'metric':<16} {'A median':>12} {'A q1-q3':>21} "
        f"{'B median':>12} {'B q1-q3':>21} {'B/A':>7} verdict"
    )
    worse = 0
    for workload in [name for name in a if name in b]:
        for metric in END_TO_END:
            sa = summarize(a[workload], metric)
            sb = summarize(b[workload], metric)
            spec = bounds[metric]
            outcome = verdict(sa, sb, spec["better"], spec["bound"])
            worse += outcome == "worse"
            ratio = sb["median"] / sa["median"] if sa["median"] else 0.0
            quartiles_a = f"{fmt(sa['q1'])}-{fmt(sa['q3'])}"
            quartiles_b = f"{fmt(sb['q1'])}-{fmt(sb['q3'])}"
            print(
                f"{workload:<17} {metric:<16} {fmt(sa['median']):>12} "
                f"{quartiles_a:>21} {fmt(sb['median']):>12} {quartiles_b:>21} "
                f"{ratio:>7.3f} {outcome}"
            )
    return 1 if worse else 0


# -- entry point ---------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="offsets every seed base (>= 0)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measuring time per workload (default: run_seconds of "
        "BENCHMARK.json, or 0 with --smoke)",
    )
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--out",
        default="",
        metavar="PATH",
        help="append one JSON line per workload, for compare",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes and two repeats, for test_e2e.py",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare A.jsonl B.jsonl", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    args = parse_args(argv)
    sizes = SMOKE_WORKLOADS if args.smoke else WORKLOADS
    names = list(sizes) if args.workload == "all" else [args.workload]
    runner = Runner(args.seed)
    try:
        seconds = args.seconds
        if seconds is None:
            seconds = 0.0 if args.smoke else float(benchmark_spec()["run_seconds"])
        runner.prepare()
    except (SetupError, OSError, ValueError, KeyError) as exc:
        print(f"e2e: cannot run here: {exc}", file=sys.stderr)
        return 2
    pinned = {}
    if not args.smoke and args.seed == 0:
        pinned = json.loads(BASELINE.read_text())["digests"]
    try:
        outcomes = run_invocation(
            [sizes[name] for name in names],
            runner,
            seconds,
            2 if args.smoke else MIN_REPEATS,
            bool(args.trace),
            pinned,
        )
    finally:
        runner.close()
    reported = {}
    for outcome in outcomes:
        print_end_to_end(outcome, args.seed)
        layers = None
        if args.trace:
            layers = layer_metrics(outcome)
            print_layers(outcome, layers, runner.trace_path(outcome.workload))
        if args.out:
            with open(args.out, "a") as handle:
                record = result_record(outcome, args, layers)
                handle.write(json.dumps(record) + "\n")
        if args.trace:
            shown = {name: (layers[name], unit) for name, unit in PER_LAYER.items()}
        else:
            medians = outcome.end_to_end()
            shown = {name: (medians[name], u) for name, (u, _) in END_TO_END.items()}
        reported[outcome.workload.name] = {
            name: {"value": v, "unit": u} for name, (v, u) in shown.items()
        }
    summary = {
        "correct": all(outcome.correct for outcome in outcomes),
        "attempted": sum(outcome.attempted for outcome in outcomes),
        "failed": sum(outcome.failed for outcome in outcomes),
        "metrics": reported[names[0]] if len(names) == 1 else reported,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
