"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``   — execute one consensus run and report decisions, statistics
              and the memory audit (optionally an ASCII timeline);
- ``coin``  — toss the standalone bounded weak shared coin repeatedly and
              report agreement rates and flip counts;
- ``strip`` — play random moves on the rounds strip, printing the game /
              graph / counter state and checking Claim 4.1 at every move;
- ``metrics`` — run one consensus execution and print its metrics snapshot
              (the ``repro.obs`` registry: steps, scan retries, coin flips,
              round advances, max register values) as a table or JSON;
              ``--series-every K`` also samples tracked counters into
              deterministic time series;
- ``trace`` — run one consensus execution with full event/span recording
              and export the trace (Chrome ``trace_event`` JSON for
              Perfetto / ``chrome://tracing``, or JSONL);
- ``experiments`` — list the E1–E12 reproduction experiments and how to
              regenerate them;
- ``report`` — print the recorded benchmark result tables
              (``benchmarks/results/``), i.e. the data behind EXPERIMENTS.md;
              with ``--out report.html``, render the self-contained HTML
              dashboard instead (metrics snapshot, time-series sparklines,
              causal critical-path attribution, baselines-vs-results
              deltas for every checked-in benchmark);
- ``chaos`` — run the fault-injection mutation campaign (every fault class
              must be caught by some checker) plus a crash-recovery and a
              fault-injection fuzz grid (see ``docs/robustness.md``);
- ``sweep`` — sweep a protocol over process counts with replicated seeded
              runs, optionally fanned out across cores (``--workers``,
              see ``docs/performance.md``);
- ``bench`` — list the machine-readable benchmark artifacts and gate them
              against the checked-in baselines (``--check``), the same
              comparison the CI ``bench-gate`` job runs;
- ``profile`` — measure serial step-loop throughput (steps/sec) for the
              P1 workloads across instrumentation modes (bare / metrics /
              trace) and print the wall-clock breakdown plus the
              instrumented-vs-bare overhead ratios (see
              ``docs/performance.md``);
- ``history`` — project the run ledger (``repro.obs.ledger``): per-
              experiment inventory (``list``), raw records by fingerprint
              (``show``), cross-run trend tables (``trends``), the
              rolling-baseline regression gate plus the determinism-
              violation detector (``check``), and duplicate compaction
              (``gc``).  See ``docs/observability.md``.

``run``, ``sweep``, ``chaos``, ``bench`` and ``profile`` accept
``--ledger PATH`` (or the ``REPRO_LEDGER`` environment variable) to
append their results to the content-addressed run ledger; re-running a
recorded (seed, config, code-version) triple is a cache hit unless
``--no-cache`` is given.

``sweep`` and ``chaos`` additionally speak the resilient campaign
runtime (``repro.resilience``, see ``docs/robustness.md``): ``--retries
N`` re-dispatches failed or killed tasks with seeded exponential backoff
(``--retry-backoff``), ``--task-timeout`` kills hung workers, and
``--resume PATH`` resumes an interrupted ledger-recorded campaign,
recomputing only the missing fingerprints.  ``chaos
--inject-worker-crash`` SIGKILLs one worker mid-campaign to prove the
retry path restores a bit-identical result.

Every command is seeded and deterministic; exit status is non-zero if a
safety check fails.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys
from typing import Sequence

# The parser's needs plus the campaign path that ``sweep``, ``chaos`` and
# ``serve`` run (run plan, engine, ledger, experiment layer); every other
# command imports what it runs in its own function.
from repro.analysis.experiment import sweep_table
from repro.analysis.reporting import format_table
from repro.obs.ledger import RunLedger, ledger_from_env, truncate_torn_tail
from repro.parallel import resolve_workers
from repro.resilience import FailurePolicy, RetryBackoff, RunPlan
from repro.runtime import CrashPlan, RecoveryPlan
from repro.workloads import (
    PROTOCOLS,
    SCHEDULERS,
    build_sweep,
    make_scheduler as _make_scheduler,
    run_chaos,
)

EXPERIMENTS = {
    "e1": "Lemma 3.1 — coin disagreement probability vs b",
    "e2": "Lemma 3.2 — coin flips vs (b+1)^2 n^2",
    "e3": "Lemmas 3.3/3.4 — counter overflow vs m",
    "e4": "§6.3 — expected rounds O(1) in n",
    "e5": "polynomial vs exponential total work",
    "e6": "memory boundedness vs Aspnes-Herlihy",
    "e7": "scan retries vs write contention",
    "e8": "snapshot properties P1-P3",
    "e9": "Claim 4.1 game/graph/counter equivalence",
    "e10": "the five-regime comparison table",
    "e11": "safety grid (consistency/validity everywhere)",
    "e12": "ablations (snapshot substrate, K, b)",
}


def _parse_inputs(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


def _parse_plan(entries: Sequence[str], kind: type[CrashPlan] | type[RecoveryPlan]):
    """A ``kind`` plan from ``--crash``/``--restart`` ``PID[:STEP]``
    entries (STEP defaults to 0), or ``None`` when there are none."""
    plan = {}
    for entry in entries:
        pid, _, step = entry.partition(":")
        plan[int(pid)] = int(step) if step else 0
    return kind(plan) if plan else None


def _open_ledger(args):
    """The command's :class:`~repro.obs.ledger.RunLedger`, or ``None``.

    ``--resume PATH`` wins outright (it *is* a ledger, with the cache
    forced on — resuming means serving every already-checkpointed cell,
    after dropping the torn trailing line a killed writer may have left,
    as ``repro serve`` does at boot); then ``--ledger PATH``, then the
    ``REPRO_LEDGER`` environment variable; recording stays off when none
    is set.  ``--no-cache`` keeps recording on but makes every
    fingerprint lookup miss.
    """
    resume = getattr(args, "resume", "")
    if resume:
        truncate_torn_tail(resume)
        return RunLedger(resume, use_cache=True)
    return ledger_from_env(
        getattr(args, "ledger", "") or None,
        use_cache=not getattr(args, "no_cache", False),
    )


def _workers_arg(text: str) -> int:
    """argparse type for ``--workers``: a clear error beats a traceback."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer (0 = all CPUs, 1 = serial)"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = all CPUs, 1 = serial), got {value}"
        )
    return value


def _batch_arg(text: str) -> int:
    """argparse type for ``--batch``: same actionable style as --workers.

    Unlike workers there is no 0-means-auto: a batch is a count of cells
    per dispatched unit (of lanes, for ``repro profile``), so only
    positive integers parse; omit the flag for the default.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer (a positive count; omit for the default)"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 (a positive count; omit for the default), got {value}"
        )
    return value


def _jsonl_path_arg(text: str) -> str:
    """argparse type for writable JSONL paths (``--access-log`` /
    ``--trace-log``): catch the obvious misuses at parse time, in the
    same actionable style as ``--workers``."""
    import pathlib

    if not text.strip():
        raise argparse.ArgumentTypeError(
            "needs a file path, e.g. .repro-serve/access.jsonl"
        )
    path = pathlib.Path(text)
    if path.exists() and path.is_dir():
        raise argparse.ArgumentTypeError(
            f"{text!r} is a directory, not a JSONL file path"
        )
    parent = path.parent
    if parent.exists() and not parent.is_dir():
        raise argparse.ArgumentTypeError(
            f"cannot create {text!r}: parent {str(parent)!r} is not a "
            "directory"
        )
    return text


def _resilience_policy(args):
    """Build the engine :class:`FailurePolicy` from ``--retries`` flags."""
    if not getattr(args, "retries", 0):
        return None
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = getattr(args, "seed_base", 0)
    return FailurePolicy.retry(
        max_attempts=args.retries + 1,
        backoff=RetryBackoff(base=args.retry_backoff, seed=seed),
    )


def _print_progress(done: int, total: int) -> None:
    print(f"\r{done}/{total} runs", end="", file=sys.stderr, flush=True)


def _run_plan(args, metrics=None):
    """The :class:`~repro.resilience.RunPlan` of a campaign command, built
    once from the flags of :func:`_add_run_plan_args` (plus ``--progress``
    where the command has it) and shared by every stage it runs."""
    return RunPlan(
        workers=args.workers,
        batch_size=args.batch,
        policy=_resilience_policy(args),
        task_timeout=args.task_timeout or None,
        metrics=metrics,
        progress=_print_progress if getattr(args, "progress", False) else None,
        ledger=_open_ledger(args),
    )


def _print_run(config, seed: int, outcome, note: str = "") -> int:
    """Print a ``repro run`` outcome: the live run's, or a cache hit's
    from its ledger record (whose keys JSON made strings)."""
    decisions = {int(k): v for k, v in (outcome.get("decisions") or {}).items()}
    restarts = {int(k): v for k, v in (outcome.get("restarts") or {}).items()}
    rounds = {int(k): v for k, v in (outcome.get("rounds_by_pid") or {}).items()}
    audit = outcome.get("audit") or {}
    inputs = config.get("inputs", [])
    print(f"protocol  : {config.get('protocol')}  (n={len(inputs)}, seed={seed}){note}")
    print(f"inputs    : {inputs}")
    print(f"decisions : {decisions}")
    print(f"crashed   : {sorted(outcome.get('crashed') or []) or '-'}")
    if restarts:
        print(f"restarts  : {restarts}")
    print(f"steps     : {outcome.get('total_steps')}   rounds: {rounds}")
    print(
        "memory    : max |int| stored "
        f"{audit.get('max_magnitude')}, widest cell {audit.get('max_width')}"
    )
    ok = bool(outcome.get("safety_ok"))
    verdict = "OK" if ok else "VIOLATED: " + "; ".join(outcome.get("problems") or [])
    print(f"safety    : {verdict}")
    return 0 if ok else 1


def cmd_run(args) -> int:
    from repro.consensus import validate_run

    inputs = _parse_inputs(args.inputs)
    ledger = _open_ledger(args)
    config = {
        "experiment": "run",
        "protocol": args.protocol,
        "inputs": inputs,
        "scheduler": args.scheduler,
        "crash": sorted(args.crash),
        "restart": sorted(args.restart),
        "max_steps": args.max_steps,
    }
    if ledger is not None and not args.timeline:
        from repro.obs.ledger import compute_fingerprint

        cached = ledger.cached(compute_fingerprint(args.seed, config))
        if cached is not None and cached.kind == "run":
            return _print_run(
                cached.config,
                cached.seed,
                cached.outcome,
                f"  [ledger cache hit {cached.fingerprint[:12]}]",
            )
    protocol = PROTOCOLS[args.protocol]()
    run = protocol.run(
        inputs,
        scheduler=_make_scheduler(args.scheduler, args.seed),
        seed=args.seed,
        crash_plan=_parse_plan(args.crash, CrashPlan),
        recovery_plan=_parse_plan(args.restart, RecoveryPlan),
        max_steps=args.max_steps,
        record_spans=args.timeline,
        keep_simulation=args.timeline,
    )
    report = validate_run(run)
    outcome = {
        "decisions": run.decisions,
        "crashed": sorted(run.outcome.crashed),
        "restarts": run.outcome.restarts,
        "total_steps": run.total_steps,
        "rounds_by_pid": run.stats.get("rounds_by_pid"),
        "audit": {
            "max_magnitude": run.audit.max_magnitude,
            "max_width": run.audit.max_width,
        },
        "safety_ok": report.ok,
        "problems": list(report.problems),
        "disagreement": len(set(run.decisions.values())) > 1,
    }
    status = _print_run(config, args.seed, outcome)
    if ledger is not None:
        from repro.obs.ledger import make_record

        ledger.append(
            make_record(
                kind="run",
                experiment="run",
                seed=args.seed,
                config=config,
                outcome=outcome,
                metrics=run.metrics,
            )
        )
    if args.timeline and run.simulation is not None:
        from repro.runtime.timeline import render_timeline

        print()
        print(
            render_timeline(
                run.simulation.trace,
                kinds={"scan", "write"},
                max_rows=args.timeline_rows,
            )
        )
    return status


def cmd_metrics(args) -> int:
    """Run one execution and print the deterministic metrics snapshot."""
    from repro.obs.timeseries import SeriesSpec

    inputs = _parse_inputs(args.inputs)
    protocol = PROTOCOLS[args.protocol]()
    series = SeriesSpec(every=args.series_every) if args.series_every else None
    run = protocol.run(
        inputs,
        scheduler=_make_scheduler(args.scheduler, args.seed),
        seed=args.seed,
        max_steps=args.max_steps,
        series=series,
    )
    snapshot = run.metrics
    assert snapshot is not None  # metrics are on by default
    if args.json:
        print(snapshot.to_json())
        return 0
    print(
        f"protocol  : {run.protocol}  (n={run.n}, seed={args.seed}, "
        f"steps={run.total_steps})"
    )
    print()
    rows = snapshot.to_rows()
    if args.filter:
        rows = [r for r in rows if args.filter in r["metric"]]
    print(format_table(rows, title="metrics snapshot"))
    return 0


def cmd_trace(args) -> int:
    """Run one execution with recording on and export the trace.

    With ``--from-job-trace``, skip the run entirely and instead
    reconstruct a service job trace (``repro serve``'s
    ``STATE_DIR/trace.jsonl``) into the same exporters — one Perfetto
    track per job, wall-clock microseconds on the time axis.
    """
    from repro.obs.export import export_trace

    if args.from_job_trace:
        from repro.serve.telemetry import job_trace_to_trace, load_job_trace

        records = load_job_trace(args.from_job_trace)
        if not records:
            print(f"no job-trace records in {args.from_job_trace}")
            return 1
        trace = job_trace_to_trace(records)
        path = export_trace(trace, args.export)
        fmt = "JSONL" if path.suffix == ".jsonl" else "Chrome trace_event"
        jobs = len({r.get("job") for r in records})
        print(
            f"reconstructed {len(records)} job-trace records "
            f"({jobs} job(s)) into {len(trace.spans)} spans and "
            f"{len(trace.events)} instants ({fmt}) at {path}"
        )
        if fmt != "JSONL":
            print("open it at https://ui.perfetto.dev or chrome://tracing")
        return 0
    inputs = _parse_inputs(args.inputs)
    protocol = PROTOCOLS[args.protocol]()
    run = protocol.run(
        inputs,
        scheduler=_make_scheduler(args.scheduler, args.seed),
        seed=args.seed,
        max_steps=args.max_steps,
        record_events=True,
        record_spans=True,
        keep_simulation=True,
    )
    trace = run.simulation.trace
    path = export_trace(trace, args.export)
    fmt = "JSONL" if path.suffix == ".jsonl" else "Chrome trace_event"
    print(
        f"exported {len(trace.events)} events and {len(trace.spans)} spans "
        f"({fmt}) to {path}"
    )
    if fmt != "JSONL":
        print("open it at https://ui.perfetto.dev or chrome://tracing")
    return 0


def cmd_coin(args) -> int:
    import statistics

    from repro.coin import BoundedWalkSharedCoin, coin_flipper_program
    from repro.runtime import RandomScheduler, Simulation, WalkBalancingAdversary

    rows = []
    disagreements = 0
    flips = []
    for seed in range(args.reps):
        scheduler = (
            WalkBalancingAdversary("coin", seed=seed)
            if args.adversary
            else RandomScheduler(seed=seed)
        )
        sim = Simulation(args.n, scheduler, seed=seed)
        coin = BoundedWalkSharedCoin(
            sim, "coin", args.n, b_barrier=args.barrier, m_bound=args.m
        )
        sim.spawn_all(coin_flipper_program(coin))
        outcome = sim.run(args.max_steps)
        if len(set(outcome.decisions.values())) > 1:
            disagreements += 1
        flips.append(coin.total_steps)
    rows.append(
        {
            "n": args.n,
            "b": args.barrier,
            "tosses": args.reps,
            "disagree rate": disagreements / args.reps,
            "paper bound": 1 / args.barrier,
            "mean flips": statistics.mean(flips),
            "paper flips": (args.barrier + 1) ** 2 * args.n**2,
        }
    )
    print(format_table(rows, title="bounded weak shared coin"))
    return 0


def cmd_strip(args) -> int:
    import random

    from repro.strip import DistanceGraph, EdgeCounters, ShrunkenTokenGame

    rng = random.Random(args.seed)
    game = ShrunkenTokenGame(args.n, args.K)
    graph = DistanceGraph.initial(args.n, args.K)
    counters = EdgeCounters(args.n, args.K)
    for move_index in range(args.moves):
        mover = rng.randrange(args.n)
        game.move_token(mover)
        graph.inc(mover)
        counters.inc(mover)
        expected = DistanceGraph.from_positions(game.positions, args.K)
        status = "ok" if graph == expected == counters.graph() else "DIVERGED"
        print(
            f"move {move_index:>3}: token {mover}  positions={game.positions}  "
            f"claim-4.1 {status}"
        )
        if status != "ok":
            return 1
    print(f"\nfinal graph: {graph}")
    print(f"max edge counter: {counters.max_counter()} (< 3K = {3 * args.K})")
    return 0


def cmd_report(args) -> int:
    import pathlib

    if args.out:
        return _report_dashboard(args)
    results = pathlib.Path(args.results_dir)
    files = sorted(results.glob("*.txt"))
    if not files:
        print(
            f"no recorded results in {results}/ — run "
            "`pytest benchmarks/ --benchmark-only` first"
        )
        return 1
    for path in files:
        print(path.read_text().rstrip())
        print()
    return 0


def _report_dashboard(args) -> int:
    """Render the self-contained HTML dashboard (``repro report --out``).

    Drives one fully-instrumented reference run (events + spans + series)
    for the metrics/series/causality sections, then gates every baseline
    ``BENCH_*.json`` against the current artifacts for the deltas table.
    Deterministic: same arguments and artifact set ⇒ byte-identical file.
    """
    from repro.obs.causality import causal_report_for
    from repro.obs.report import gate_all_benchmarks, write_report
    from repro.obs.timeseries import SeriesSpec

    inputs = _parse_inputs(args.inputs)
    protocol = PROTOCOLS[args.protocol]()
    run = protocol.run(
        inputs,
        scheduler=_make_scheduler(args.scheduler, args.seed),
        seed=args.seed,
        max_steps=args.max_steps,
        record_events=True,
        record_spans=True,
        keep_simulation=True,
        series=SeriesSpec(every=args.series_every),
    )
    causal = causal_report_for(run.simulation, run.outcome)
    gates = gate_all_benchmarks(args.results_dir, args.baselines_dir)
    meta = {
        "protocol": run.protocol,
        "n": run.n,
        "seed": args.seed,
        "scheduler": args.scheduler,
        "steps": run.total_steps,
        "series_every": args.series_every,
    }
    trends = None
    ledger = _open_ledger(args)
    if ledger is not None:
        from repro.obs.projections import trend_rows

        trends = trend_rows(ledger.records())
    service = None
    if args.jobs_log:
        from repro.obs.report import service_summary

        service = service_summary(args.jobs_log, trace_log=args.job_trace or None)
    path = write_report(
        args.out, run.metrics, causal, gates, meta, trends=trends, service=service
    )
    ok = sum(1 for g in gates if g.ok)
    print(
        f"wrote {path} — {run.total_steps} steps analyzed, "
        f"critical path {causal.critical_length}, "
        f"{ok}/{len(gates)} benchmarks within tolerance"
    )
    return 0


def cmd_chaos(args) -> int:
    """Mutation-test the checkers, then fuzz crash-recovery and faults."""
    import json
    import tempfile

    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry(enabled=True)
    plan = _run_plan(args, metrics=registry)
    ledger = plan.ledger
    task_wrapper = None
    crash_dir = None
    if args.inject_worker_crash:
        # A CrashOnce SIGKILL in the serial path would kill *this* process,
        # and without retries the murdered cell is simply lost — refuse the
        # combinations that cannot demonstrate anything.
        if resolve_workers(plan.workers) < 2 or plan.policy is None:
            print(
                "chaos: --inject-worker-crash needs two or more workers "
                "(--workers or REPRO_WORKERS; 0 = all CPUs) and --retries "
                ">= 1 (the killed worker's task must be re-dispatchable)"
            )
            return 2
        from repro.resilience import CrashOnce

        crash_dir = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        marker = f"{crash_dir.name}/crashed"
        task_wrapper = lambda fn: CrashOnce(fn, marker)  # noqa: E731

    campaign, recovery, faults = run_chaos(
        args.seed, args.runs_per_cell, plan, task_wrapper
    )
    if crash_dir is not None:
        crash_dir.cleanup()
    columns = ("fault", "layer", "checker", "injections", "detected", "expected", "ok")
    rows = [{k: row[k] for k in columns} for row in campaign.to_rows()]
    print(format_table(rows, title="checker mutation campaign"))
    print(f"detections by fault class: {campaign.detections_by_kind()}")
    if campaign.holes:
        print(f"HOLES (fault classes no checker caught): {campaign.holes}")

    print()
    print(f"crash-recovery fuzz : {recovery.summary()}")
    for failure in recovery.failures:
        print(f"  FAIL {failure}")
    print(f"fault-injection fuzz: {faults.summary()}")

    snapshot = registry.snapshot()
    resilience = {
        "retries": snapshot.counter_total("resilience.retries"),
        "timeouts": snapshot.counter_total("resilience.timeouts"),
        "shed": snapshot.counter_total("resilience.shed"),
        "cache_hits": campaign.cache_hits
        + recovery.cache_hits
        + faults.cache_hits,
        "task_errors": campaign.task_errors
        + recovery.task_errors
        + faults.task_errors,
    }
    if any(resilience[k] for k in ("retries", "timeouts", "shed", "cache_hits")):
        print(
            f"resilience: {resilience['retries']} retries, "
            f"{resilience['timeouts']} timeouts, {resilience['shed']} shed, "
            f"{resilience['cache_hits']} cells served from checkpoint"
        )
    if ledger is not None:
        print(
            f"ledger    : {len(ledger)} records in {ledger.path} "
            f"({ledger.hits} cell lookups served, {ledger.misses} recomputed)"
        )

    ok = campaign.ok and recovery.ok and faults.ok
    if args.json:
        payload = {
            "seed": args.seed,
            "ok": ok,
            "campaign": json.loads(campaign.to_json(indent=None)),
            "recovery_fuzz": {
                "runs": recovery.runs,
                "recovery_runs": recovery.recovery_runs,
                "degraded_runs": recovery.degraded_runs,
                "failures": [str(f) for f in recovery.failures],
            },
            "fault_fuzz": {
                "runs": faults.runs,
                "fault_runs": faults.fault_runs,
                "fault_injections": faults.fault_injections,
                "fault_detections": faults.fault_detections,
                "failures": [str(f) for f in faults.failures],
            },
            "resilience": resilience,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"\nwrote JSON report to {args.json}")
    print(f"\nchaos: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    """Sweep a protocol over process counts with replicated, seeded runs.

    The parallel counterpart of repeated ``repro run`` invocations: every
    (n, seed) cell is an independent simulation, so ``--workers`` fans the
    grid out across cores and the table is identical for any worker count.
    """
    n_values = _parse_inputs(args.n_values)
    metric = args.metric
    plan = _run_plan(args)
    # build_sweep is the single definition of the sweep's cells: the serve
    # dispatcher calls it too, so HTTP-submitted sweeps write ledger bytes
    # identical to this command's.
    sweep = build_sweep(
        protocol=args.protocol,
        n_values=n_values,
        reps=args.reps,
        seed_base=args.seed_base,
        scheduler=args.scheduler,
        metric=metric,
        max_steps=args.max_steps,
    )
    points = sweep.execute(plan)
    if args.progress:
        print(file=sys.stderr)
    print(
        format_table(
            sweep_table(points),
            title=(
                f"{args.protocol} — {metric} vs n "
                f"({args.reps} reps, {args.scheduler} scheduler, "
                f"workers={resolve_workers(args.workers)})"
            ),
        )
    )
    ledger = plan.ledger
    if ledger is not None:
        print(
            f"ledger    : {len(ledger)} records in {ledger.path} "
            f"({ledger.hits} cells served from checkpoint, "
            f"{ledger.misses} recomputed)"
        )
    return 0


def cmd_bench(args) -> int:
    """List benchmark artifacts, gate them against baselines, or update."""
    import json
    import pathlib

    from repro.analysis.benchgate import (
        bench_record,
        check_experiments,
        update_baselines,
    )

    results_dir = pathlib.Path(args.results_dir)
    baselines_dir = pathlib.Path(args.baselines_dir)
    experiments = (
        [e.strip().lower() for e in args.experiments.split(",") if e.strip()]
        if args.experiments
        else sorted(
            p.stem.replace("BENCH_", "").lower()
            for p in results_dir.glob("BENCH_*.json")
        )
    )
    if not experiments:
        print(f"no BENCH_*.json artifacts in {results_dir}/ — run the benchmarks")
        return 1
    ledger = _open_ledger(args)
    if ledger is not None:
        appended = 0
        for experiment in experiments:
            path = results_dir / f"BENCH_{experiment.upper()}.json"
            if path.exists():
                payload = json.loads(path.read_text())
                appended += ledger.append(bench_record(experiment, payload))
        print(
            f"ledger    : appended {appended} artifact record(s) to {ledger.path}"
        )
    if args.update:
        copied = update_baselines(experiments, results_dir, baselines_dir)
        print(f"updated baselines for: {', '.join(e.upper() for e in copied)}")
        missing = sorted(set(experiments) - set(copied))
        if missing:
            print(f"no artifact yet for: {', '.join(e.upper() for e in missing)}")
        return 0 if not missing else 1
    if not args.check:
        rows = []
        for experiment in experiments:
            name = f"BENCH_{experiment.upper()}.json"
            rows.append(
                {
                    "experiment": experiment.upper(),
                    "artifact": (results_dir / name).exists(),
                    "baseline": (baselines_dir / name).exists(),
                }
            )
        print(format_table(rows, title="benchmark artifacts"))
        print("run `repro bench --check` to gate artifacts against baselines")
        return 0
    results = check_experiments(
        experiments, results_dir, baselines_dir, tolerance=args.tolerance
    )
    for result in results:
        print(result.summary())
        if not result.ok:
            print(f"  baseline : {result.baseline_file}")
            print(f"  artifact : {result.artifact_file}")
        diffed = {d["location"] for d in result.deviations}
        for dev in result.deviations:
            drift = f"  drift {dev['drift']:.1%}" if "drift" in dev else ""
            print(
                f"  REGRESSION {dev['location']}: expected {dev['expected']!r}"
                f" -> actual {dev['actual']!r}{drift}"
            )
        for problem in result.problems:
            # Value-level problems were already printed as structured
            # expected-vs-actual lines above; only shape/missing-file
            # problems have no deviation entry.
            if any(problem.startswith(f"{loc}:") for loc in diffed):
                continue
            print(f"  REGRESSION {problem}")
    ok = all(r.ok for r in results)
    print(f"\nbench gate: {'OK' if ok else 'FAILED'} (tolerance {args.tolerance:.0%})")
    return 0 if ok else 1


def cmd_profile(args) -> int:
    """Measure step-loop throughput and instrumentation overhead (P1)."""
    from repro.analysis.perfbench import DEFAULT_SEEDS, profile_breakdown

    seeds = range(DEFAULT_SEEDS[0], DEFAULT_SEEDS[0] + args.runs)
    rows, profiler = profile_breakdown(seeds=list(seeds), repeats=args.repeats)
    batched = None
    if args.batch is not None:
        from repro.analysis.perfbench import measure_batched_throughput

        batched = measure_batched_throughput(
            seeds=list(seeds),
            lanes=args.batch,
            repeats=args.repeats,
            profiler=profiler,
        )
    print(
        format_table(
            rows,
            title=(
                f"serial step-loop throughput ({args.runs} seeded runs per "
                f"cell, best of {args.repeats})"
            ),
        )
    )
    timing_rows = [
        {
            "section": section,
            "repeats": int(summary["count"]),
            "min_s": round(summary["min"], 4),
            "mean_s": round(summary["mean"], 4),
            "max_s": round(summary["max"], 4),
        }
        for section, summary in profiler.sections().items()
    ]
    print()
    print(format_table(timing_rows, title="wall-clock per section (seconds)"))
    bare = {r["workload"]: r["steps_per_sec"] for r in rows if r["mode"] == "bare"}
    worst = max(
        (r["overhead_vs_bare"] for r in rows if r["mode"] == "metrics"),
        default=0.0,
    )
    print(
        f"\nbare consensus throughput: {bare.get('consensus', 0):,} steps/sec; "
        f"worst metrics-on overhead: {worst:.2f}x"
    )
    if batched is not None:
        speedup = (
            batched.steps_per_sec / bare["consensus"] if bare.get("consensus") else 0.0
        )
        print()
        print(
            format_table(
                [
                    {
                        "workload": batched.workload,
                        "mode": batched.mode,
                        "lanes": args.batch,
                        "steps": batched.steps,
                        "steps_per_sec": round(batched.steps_per_sec),
                        "speedup_vs_bare_wall": round(speedup, 2),
                    }
                ],
                title=(
                    f"batched struct-of-arrays loop ({args.batch} lanes through "
                    f"one fused step loop, best of {args.repeats})"
                ),
            )
        )
    ledger = _open_ledger(args)
    if ledger is not None:
        from repro.obs.ledger import make_record

        # Throughput is a host measurement, so it rides in ``timings``
        # (outside the deterministic identity): one record per code
        # version, and the steps/sec *trend* across versions is what
        # ``repro history trends`` plots.
        ledger.append(
            make_record(
                kind="profile",
                experiment="profile",
                seed=0,
                config={
                    "experiment": "profile",
                    "runs": args.runs,
                    "repeats": args.repeats,
                    "batch": args.batch,
                },
                outcome={
                    "workloads": sorted({r["workload"] for r in rows}),
                    "modes": sorted({r["mode"] for r in rows})
                    + (["batched"] if batched is not None else []),
                },
                timings={
                    "throughput": {
                        f"{r['workload']}/{r['mode']}": {
                            "steps_per_sec": r["steps_per_sec"]
                        }
                        for r in rows
                    }
                    | (
                        {
                            "consensus/batched": {
                                "steps_per_sec": round(batched.steps_per_sec),
                                "lanes": args.batch,
                            }
                        }
                        if batched is not None
                        else {}
                    ),
                },
            )
        )
        print(f"ledger    : recorded profile in {ledger.path}")
    return 0


def _discover_experiments(bench_dir) -> dict[str, tuple[str, str]]:
    """Scan ``benchmarks/bench_<id>_*.py`` for ``id -> (claim, script)``.

    The claim is the static E1–E12 index entry when the id is known there,
    otherwise the benchmark module's docstring first line — so new
    benchmarks (P1, X1, ...) appear in ``repro experiments`` without
    anyone remembering to extend a hand-maintained table.
    """
    import re

    found: dict[str, tuple[str, str]] = {}
    for path in sorted(bench_dir.glob("bench_*.py")):
        match = re.match(r"bench_([a-z]+[0-9]+)_", path.name)
        if not match:
            continue
        key = match.group(1)
        claim = EXPERIMENTS.get(key, "")
        if not claim:
            doc = re.search(r'"{3}\s*([^\n"]+)', path.read_text())
            claim = doc.group(1).strip() if doc else ""
        found[key] = (claim, path.name)
    return found


def cmd_experiments(args) -> int:
    """List the reproduction experiments (benchmarks/ scanned dynamically)."""
    import pathlib
    import re

    found = _discover_experiments(pathlib.Path(args.benchmarks_dir))
    # Static fallback for ids whose script is not visible from here (or
    # when run outside the repository root): the hand-written index.
    for key, text in EXPERIMENTS.items():
        found.setdefault(key, (text, f"bench_{key}_*.py"))

    def sort_key(key: str) -> tuple[int, str, int]:
        letter, digits = re.match(r"([a-z]+)([0-9]+)", key).groups()
        return (0 if letter == "e" else 1, letter, int(digits))

    rows = [
        {
            "id": key.upper(),
            "claim": found[key][0],
            "regenerate": f"pytest benchmarks/{found[key][1]} --benchmark-only -s",
        }
        for key in sorted(found, key=sort_key)
    ]
    print(format_table(rows, title="reproduction experiments (see EXPERIMENTS.md)"))
    return 0


def cmd_history(args) -> int:
    """Project the run ledger: list, show, trends, check, or gc."""
    from repro.obs.ledger import LEDGER_ENV, LedgerCorruption, ledger_from_env
    from repro.obs.projections import (
        filter_records,
        history_check,
        history_rows,
        trend_rows,
        trend_series,
    )

    ledger = ledger_from_env(args.ledger or None)
    if ledger is None:
        print(f"no ledger: pass --ledger PATH or set {LEDGER_ENV}")
        return 2

    try:
        if args.action == "gc":
            kept, dropped = ledger.gc()
            print(
                f"ledger gc: kept {kept} record(s), dropped {dropped} "
                "duplicate(s)"
            )
            return 0
        records = ledger.records()
    except LedgerCorruption as exc:
        # The message leads with <file>:<line> — print it instead of a
        # traceback so CI artifacts point straight at the damaged line.
        print(f"LEDGER CORRUPT {exc}")
        return 3
    if args.action == "list":
        records = filter_records(records, experiment=args.experiment)
        if not records:
            suffix = f" matching {args.experiment!r}" if args.experiment else ""
            print(f"ledger {ledger.path}: no records{suffix}")
            return 0
        print(
            format_table(
                history_rows(records),
                title=f"run ledger {ledger.path} — {len(records)} records",
            )
        )
        return 0

    if args.action == "show":
        if not args.fingerprint:
            print("history show needs --fingerprint PREFIX (see `history list`)")
            return 2
        matches = [
            r for r in records if r.fingerprint.startswith(args.fingerprint)
        ]
        if not matches:
            print(f"no records match fingerprint {args.fingerprint!r}")
            return 1
        for record in matches:
            print(record.to_line())
        return 0

    if args.action == "trends":
        records = filter_records(records, experiment=args.experiment)
        if args.metric:
            for index, value in trend_series(records, args.metric):
                print(f"{int(index):>6}  {value:g}")
            return 0
        rows = [
            {k: row[k] for k in ("experiment", "metric", "n", "first", "last", "mean")}
            for row in trend_rows(records)
        ]
        if not rows:
            print("no trend data (no recorded metric the trends know about)")
            return 0
        print(format_table(rows, title="cross-run trends"))
        return 0

    assert args.action == "check"
    check = history_check(
        records,
        window=args.window,
        tolerance=args.tolerance,
        experiment=args.experiment,
    )
    for alert in check.regressions:
        print(f"REGRESSION {alert}")
    for violation in check.violations:
        # The full fingerprint (not the display-truncated prefix) so CI
        # logs can be fed straight to `repro history show --fingerprint`.
        print(f"VIOLATION  {violation}")
        print(f"           fingerprint: {violation.fingerprint}")
    print(check.summary())
    return 0 if check.ok else 1


#: Seconds ``repro serve`` may spend stopping after Ctrl-C before it dumps
#: every thread's stack (it keeps stopping; the dump is a diagnosis).
_STOP_DUMP_AFTER_S = 10.0


def cmd_serve(args) -> int:
    """Run the simulation service: HTTP/JSON API + persistent job queue."""
    import faulthandler
    import os
    import signal

    from repro.serve import ServeConfig, build_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers if args.workers is not None else 1,
        state_dir=args.state_dir,
        ledger_path=args.ledger,
        jobs_path=args.jobs_log,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
        task_timeout=args.task_timeout,
        max_queued=args.max_queued,
        budget_steps=args.budget_steps,
        budget_wall_seconds=args.budget_wall_seconds,
        budget_tasks=args.budget_tasks,
        soft_fraction=args.soft_fraction,
        trace_path=args.trace_log or "",
        access_log=args.access_log or "",
    )
    server = build_server(config)

    def terminate(signum, frame):  # noqa: ARG001 - signal API
        # Immediate exit is safe by design: engine workers read EOF on
        # their pipes and exit, appends are whole locked lines, and
        # the next boot heals at most one torn trailing line — so the
        # checkpointed ledger prefix is the durable state and the
        # restarted server recomputes only missing fingerprints.
        print("\nrepro serve: caught SIGTERM, exiting", flush=True)
        os._exit(0)

    signal.signal(signal.SIGTERM, terminate)
    # Start-up and banner sit inside the try: a Ctrl-C that lands the
    # moment "listening on" is printed still stops the server.
    try:
        server.start()
        print(f"repro serve: listening on {server.url}", flush=True)
        print(
            f"repro serve: ledger {config.resolved_ledger()}  "
            f"jobs-log {config.resolved_jobs()}  workers {server.dispatcher.workers}",
            flush=True,
        )
        print(
            f"repro serve: job-trace {config.resolved_trace()}"
            + (f"  access-log {config.access_log}" if config.access_log else ""),
            flush=True,
        )
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nrepro serve: shutting down")
        # A stop that overruns dumps every thread's stack to stderr, so a
        # hung shutdown says where it hangs before anyone kills it.
        faulthandler.dump_traceback_later(_STOP_DUMP_AFTER_S)
        try:
            server.stop()
        finally:
            faulthandler.cancel_dump_traceback_later()
    return 0


def _add_run_plan_args(
    parser: argparse.ArgumentParser, campaign: bool = True
) -> None:
    """The engine flags of ``sweep``, ``chaos`` and ``serve``.

    A ``campaign`` command (``sweep``, ``chaos``) also gets ``--batch``,
    the ledger flags and ``--resume``, and builds its
    :class:`~repro.resilience.RunPlan` from all of them with
    :func:`_run_plan`; ``serve`` hands the shared four to its dispatcher,
    which keeps one plan for the server's lifetime.
    """
    parser.add_argument(
        "--workers",
        type=_workers_arg,
        default=None,
        metavar="N",
        help="worker processes (default serial; 0 = all CPUs; results "
        "identical at any count)",
    )
    if campaign:
        parser.add_argument(
            "--batch",
            type=_batch_arg,
            default=None,
            metavar="N",
            help="cells dispatched per unit (default REPRO_BATCH, else "
            "worked out); ADS sweep cells under the random scheduler always "
            "run as fused struct-of-arrays lanes, and results and ledger "
            "bytes are identical at any batch size",
        )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="re-dispatch a failed/killed task up to N times with seeded "
        "exponential backoff (retried tasks re-run from their original "
        "seed, so results stay bit-identical; default 0 = no retries)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="base delay of the seeded exponential backoff between "
        "attempts (default 0.05; 0 disables sleeping)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="per-task wall-clock deadline; an overdue worker is killed "
        "and the task counts as a timeout (needs --workers >= 2; "
        "0 = no deadline)",
    )
    if not campaign:
        return
    _add_ledger_args(parser)
    parser.add_argument(
        "--resume",
        default="",
        metavar="PATH",
        help="resume an interrupted campaign from this checkpoint ledger: "
        "cells it already holds are served from it, only missing "
        "fingerprints are recomputed (implies --ledger PATH with "
        "caching forced on)",
    )


def _add_single_run_args(
    parser: argparse.ArgumentParser, inputs: str = "0,1,0,1"
) -> None:
    """The flags naming one consensus run (``run``, ``metrics``,
    ``trace``, ``report``)."""
    parser.add_argument("--protocol", choices=sorted(PROTOCOLS), default="ads")
    parser.add_argument("--inputs", default=inputs, help="comma-separated bits")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scheduler", choices=SCHEDULERS, default="random")
    parser.add_argument("--max-steps", type=int, default=50_000_000)


def _add_ledger_args(parser: argparse.ArgumentParser, cache: bool = True) -> None:
    parser.add_argument(
        "--ledger",
        default="",
        metavar="PATH",
        help="append run records to this content-addressed ledger "
        "(default: $REPRO_LEDGER; recording off when neither is set)",
    )
    if cache:
        parser.add_argument(
            "--no-cache",
            action="store_true",
            help="recompute even when the ledger already holds this "
            "(seed, config, code-version) fingerprint",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Bounded Polynomial Randomized Consensus (PODC 1989) — "
            "reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one consensus execution")
    _add_single_run_args(run)
    run.add_argument(
        "--crash",
        action="append",
        default=[],
        metavar="PID[:STEP]",
        help="crash PID at STEP (repeatable)",
    )
    run.add_argument(
        "--restart",
        action="append",
        default=[],
        metavar="PID[:STEP]",
        help="restart a crashed PID at STEP with local state lost (repeatable)",
    )
    run.add_argument("--timeline", action="store_true", help="print span timeline")
    run.add_argument("--timeline-rows", type=int, default=40)
    _add_ledger_args(run)
    run.set_defaults(func=cmd_run)

    metrics = sub.add_parser(
        "metrics", help="run one execution and print its metrics snapshot"
    )
    _add_single_run_args(metrics)
    metrics.add_argument("--json", action="store_true", help="print snapshot as JSON")
    metrics.add_argument(
        "--filter", default="", help="only metrics whose name contains this substring"
    )
    metrics.add_argument(
        "--series-every",
        type=int,
        default=0,
        metavar="K",
        help="also sample tracked counters every K steps into time series "
        "(0 = off)",
    )
    metrics.set_defaults(func=cmd_metrics)

    trace = sub.add_parser(
        "trace", help="run one execution and export its trace for Perfetto"
    )
    _add_single_run_args(trace)
    trace.add_argument(
        "--export",
        default="trace.json",
        metavar="PATH",
        help="output file; .jsonl exports JSONL, anything else Chrome trace_event",
    )
    trace.add_argument(
        "--from-job-trace",
        default="",
        metavar="PATH",
        help="reconstruct a `repro serve` job trace (STATE_DIR/trace.jsonl) "
        "instead of running a simulation: one Perfetto track per job with "
        "queue-wait/dispatch/task/checkpoint spans",
    )
    trace.set_defaults(func=cmd_trace)

    coin = sub.add_parser("coin", help="toss the bounded weak shared coin")
    coin.add_argument("--n", type=int, default=4)
    coin.add_argument("--barrier", "-b", type=int, default=2)
    coin.add_argument("--m", type=int, default=None)
    coin.add_argument("--reps", type=int, default=30)
    coin.add_argument("--adversary", action="store_true")
    coin.add_argument("--max-steps", type=int, default=10_000_000)
    coin.set_defaults(func=cmd_coin)

    strip = sub.add_parser("strip", help="play the rounds-strip game")
    strip.add_argument("--n", type=int, default=3)
    strip.add_argument("--K", type=int, default=2)
    strip.add_argument("--moves", type=int, default=15)
    strip.add_argument("--seed", type=int, default=0)
    strip.set_defaults(func=cmd_strip)

    chaos = sub.add_parser(
        "chaos", help="mutation-test the checkers and fuzz recovery/faults"
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument(
        "--runs-per-cell",
        type=int,
        default=25,
        metavar="N",
        help="recovery-fuzz runs per (n, scheduler) cell (default 25 → 200 runs)",
    )
    chaos.add_argument(
        "--json", default="", metavar="PATH", help="also write a JSON report"
    )
    chaos.add_argument(
        "--inject-worker-crash",
        action="store_true",
        help="chaos-test the harness itself: SIGKILL one worker "
        "mid-campaign and prove the retry path restores a bit-identical "
        "result (needs two or more workers and --retries >= 1)",
    )
    _add_run_plan_args(chaos)
    chaos.set_defaults(func=cmd_chaos)

    sweep = sub.add_parser(
        "sweep", help="sweep a protocol over n with replicated parallel runs"
    )
    sweep.add_argument("--protocol", choices=sorted(PROTOCOLS), default="ads")
    sweep.add_argument(
        "--n-values", default="2,3,4", help="comma-separated process counts"
    )
    sweep.add_argument("--reps", type=int, default=10, help="seeded runs per point")
    sweep.add_argument("--seed-base", type=int, default=0)
    sweep.add_argument("--scheduler", choices=SCHEDULERS, default="random")
    sweep.add_argument("--metric", choices=["steps", "rounds"], default="steps")
    sweep.add_argument("--max-steps", type=int, default=50_000_000)
    sweep.add_argument(
        "--progress", action="store_true", help="tick run completion on stderr"
    )
    _add_run_plan_args(sweep)
    sweep.set_defaults(func=cmd_sweep)

    bench = sub.add_parser(
        "bench", help="list/gate benchmark artifacts against baselines"
    )
    bench.add_argument(
        "--check", action="store_true", help="fail on deviation from baselines"
    )
    bench.add_argument(
        "--update", action="store_true", help="copy current artifacts to baselines"
    )
    bench.add_argument(
        "--experiments",
        default="",
        metavar="E1,E6,...",
        help="experiments to gate (default: every artifact present)",
    )
    bench.add_argument("--results-dir", default="benchmarks/results")
    bench.add_argument("--baselines-dir", default="benchmarks/baselines")
    bench.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="relative deviation allowed per value (default 0.10)",
    )
    _add_ledger_args(bench, cache=False)
    bench.set_defaults(func=cmd_bench)

    profile = sub.add_parser(
        "profile",
        help="measure step-loop throughput and instrumentation overhead",
    )
    profile.add_argument(
        "--runs",
        type=int,
        default=6,
        metavar="N",
        help="seeded runs per (workload, mode) cell (default 6)",
    )
    profile.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="timing repeats per cell, best one kept (default 3)",
    )
    profile.add_argument(
        "--batch",
        type=_batch_arg,
        metavar="N",
        help=(
            "also profile the batched struct-of-arrays loop with N lanes "
            "through one fused step loop (omit to skip)"
        ),
    )
    _add_ledger_args(profile, cache=False)
    profile.set_defaults(func=cmd_profile)

    experiments = sub.add_parser(
        "experiments", help="list the reproduction experiments (E1-E12, P*, X*)"
    )
    experiments.add_argument(
        "--benchmarks-dir",
        default="benchmarks",
        help="directory scanned for bench_*.py scripts",
    )
    experiments.set_defaults(func=cmd_experiments)

    from repro.obs.trends import DEFAULT_TOLERANCE, DEFAULT_WINDOW, TREND_METRICS

    history = sub.add_parser(
        "history",
        help="inspect the run ledger: list / show / trends / check / gc",
    )
    history.add_argument(
        "action",
        choices=["list", "show", "trends", "check", "gc"],
        help="list experiments, show records by fingerprint, print trend "
        "tables, run the regression + determinism gates, or compact "
        "duplicate records",
    )
    history.add_argument(
        "--ledger",
        default="",
        metavar="PATH",
        help="ledger file (default: $REPRO_LEDGER)",
    )
    history.add_argument(
        "--experiment",
        default="",
        help="only experiments whose label contains this substring",
    )
    history.add_argument(
        "--metric",
        default="",
        choices=["", *TREND_METRICS],
        help="trends: print one metric's raw points instead of the table",
    )
    history.add_argument(
        "--fingerprint",
        default="",
        metavar="PREFIX",
        help="show: print every record whose fingerprint starts with this",
    )
    history.add_argument(
        "--window",
        type=int,
        default=DEFAULT_WINDOW,
        help=f"check: rolling-baseline window (default {DEFAULT_WINDOW})",
    )
    history.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="check: relative deviation allowed for the latest trend value "
        f"(default {DEFAULT_TOLERANCE})",
    )
    history.set_defaults(func=cmd_history)

    serve = sub.add_parser(
        "serve",
        help="run the simulation service: HTTP job API over the run ledger",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port (0 = pick a free one, printed at startup)",
    )
    _add_run_plan_args(serve, campaign=False)
    serve.add_argument(
        "--state-dir",
        default=".repro-serve",
        metavar="DIR",
        help="where the service ledger and job log live (default .repro-serve)",
    )
    serve.add_argument(
        "--ledger",
        default="",
        metavar="PATH",
        help="run ledger file (default: STATE_DIR/ledger.jsonl)",
    )
    serve.add_argument(
        "--jobs-log",
        default="",
        metavar="PATH",
        help="job event log (default: STATE_DIR/jobs.jsonl)",
    )
    serve.add_argument(
        "--max-queued",
        type=int,
        default=64,
        metavar="N",
        help="queue-full threshold: POSTs beyond N queued jobs get 429",
    )
    serve.add_argument(
        "--budget-steps",
        type=int,
        default=0,
        metavar="N",
        help="campaign step budget for admission control (0 = unlimited)",
    )
    serve.add_argument(
        "--budget-wall-seconds",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="wall-clock budget for admission control (0 = unlimited)",
    )
    serve.add_argument(
        "--budget-tasks",
        type=int,
        default=0,
        metavar="N",
        help="admitted-jobs budget for admission control (0 = unlimited)",
    )
    serve.add_argument(
        "--soft-fraction",
        type=float,
        default=0.8,
        metavar="F",
        help="load level where best-effort jobs start shedding (default 0.8)",
    )
    serve.add_argument(
        "--trace-log",
        type=_jsonl_path_arg,
        default=None,  # argparse would run str defaults through the type
        metavar="PATH",
        help="job-trace JSONL (queue-wait/dispatch/task/checkpoint spans; "
        "default: STATE_DIR/trace.jsonl — render with "
        "`repro trace --from-job-trace`)",
    )
    serve.add_argument(
        "--access-log",
        type=_jsonl_path_arg,
        default=None,  # see --trace-log

        metavar="PATH",
        help="append one JSONL line per HTTP request (method, path, "
        "status, seconds); off by default",
    )
    serve.set_defaults(func=cmd_serve)

    report = sub.add_parser(
        "report",
        help="print recorded benchmark tables, or render the HTML dashboard",
    )
    report.add_argument("--results-dir", default="benchmarks/results")
    report.add_argument("--baselines-dir", default="benchmarks/baselines")
    report.add_argument(
        "--out",
        default="",
        metavar="PATH",
        help="write the self-contained HTML dashboard (metrics, time "
        "series, causal critical path, baseline deltas) instead of "
        "printing tables",
    )
    _add_single_run_args(report, inputs="0,1,1")
    report.add_argument(
        "--series-every",
        type=int,
        default=64,
        metavar="K",
        help="series sampling period for the dashboard's reference run",
    )
    report.add_argument(
        "--jobs-log",
        default="",
        metavar="PATH",
        help="render the Service section from this `repro serve` job log",
    )
    report.add_argument(
        "--job-trace",
        default="",
        metavar="PATH",
        help="render the Service timeline section from this `repro serve` "
        "job trace (STATE_DIR/trace.jsonl; needs --jobs-log)",
    )
    _add_ledger_args(report, cache=False)
    report.set_defaults(func=cmd_report)
    return parser


#: Whether :func:`main` registered its exit hook; process-wide, like the
#: ``atexit`` registry it guards.
_exit_hook_registered = False


def main(argv: Sequence[str] | None = None) -> int:
    global _exit_hook_registered
    if not _exit_hook_registered:
        # At exit CPython runs full collections over a heap that nothing
        # reads again; freezing it first moves every tracked object out
        # of their reach.  The hook runs only at exit, so a caller of
        # main() keeps normal collection until then.  No output depends
        # on it: commands close the files they write before returning,
        # and the interpreter flushes stdout and stderr either way.
        atexit.register(gc.freeze)
        _exit_hook_registered = True
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
