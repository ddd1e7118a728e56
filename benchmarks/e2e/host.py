"""Child-process host of the end-to-end benchmark.

Runs ``repro.cli.main(argv)`` -- the code path of ``python -m repro`` -- in
a fresh interpreter.  At exit it writes ``--report`` as JSON: ``ready``, the
monotonic instant the CLI became ready (``repro.cli`` imported and the
arguments parsed), and ``peak_rss_kb`` over itself and its reaped workers.

With ``--trace-dir`` it first wraps the public functions at the layer
boundaries the benchmark reports on (pool, batch lanes, ledger writes and
reads, checkpointing, the serve queue and dispatcher) and runs cProfile
over the simulating thread: the whole ``main`` for CLI commands, every
``Dispatcher.execute`` call under ``serve``.  Spans (name, start, end,
parent, pid) stay in memory and are written once, when ``main`` returns,
to ``<trace-dir>/trace.json`` as Chrome trace_event JSON; the profile
split rides along under ``otherData``.  Stop a traced ``serve`` with
SIGINT: its SIGTERM handler calls ``os._exit`` and would lose the spans.

    python3 benchmarks/e2e/host.py --report F [--trace-dir D] -- sweep ...
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import itertools
import json
import os
import resource
import sys
import threading
import time

#: Repro modules whose self time is reported as its own layer; everything
#: else in the package is ``other``.  Keys are package-relative prefixes.
LAYERS = {
    "runtime/": "runtime",
    "registers/": "registers",
    "snapshot/": "snapshot",
    "coin/": "coin",
    "strip/": "strip",
    "consensus/": "consensus",
    "batch/": "batch",
    "obs/metrics.py": "obs.metrics",
}

#: The memory audit run on every audited register write.
AUDIT_FUNCTIONS = {
    ("registers/base.py", "observe"),
    ("registers/base.py", "measure_magnitude"),
    ("registers/base.py", "measure_width"),
}
DECODE_FUNCTION = ("strip/edge_counters.py", "decode_graph")


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """In-memory span recorder plus the timing wrappers that feed it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.forks = 0
        self.profile = cProfile.Profile()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        os.register_at_fork(
            after_in_parent=self._count_fork, after_in_child=self._in_child
        )

    def _count_fork(self) -> None:
        if os.getpid() == self.pid:
            self.forks += 1

    def _in_child(self) -> None:
        # A worker forked while the profiler was on would run profiled (and
        # slower) with its stats lost at exit.
        self.profile.disable()

    def wrap(self, name, fn, annotate=None, cpu=False, profile=False):
        """``fn`` timed as span ``name``; ``annotate(args, result)`` adds
        span args, or returns ``None`` to drop an uninteresting call."""
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            stack = tracer._local.__dict__.setdefault("stack", [])
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            if cpu:
                thread0, children0 = time.thread_time(), _children_cpu()
            if profile:
                tracer.profile.enable()
            start = time.monotonic()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                if profile:
                    tracer.profile.disable()
                stack.pop()
                extra = {} if annotate is None else annotate(args, result)
                if extra is not None:
                    if cpu:
                        extra["thread_cpu_s"] = time.thread_time() - thread0
                        extra["children_cpu_s"] = _children_cpu() - children0
                    span = {
                        "name": name,
                        "id": span_id,
                        "parent": parent,
                        "pid": tracer.pid,
                        "tid": threading.get_ident(),
                        "start": start,
                        "end": end,
                        "args": extra,
                    }
                    with tracer._lock:
                        tracer.spans.append(span)

        return traced

    def patch(self, module_name: str, attr: str, name: str, **options) -> None:
        """Replace ``module.attr`` (``Class.method`` allowed) by its traced
        version, rebinding every ``from module import fn`` copy as well."""
        try:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
        except (ImportError, AttributeError):
            self.missing.append(f"{module_name}.{attr}")
            return
        traced = self.wrap(name, original, **options)
        setattr(owner, leaf, traced)
        if path:
            return
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def install(self, serve: bool) -> None:
        self.patch(
            "repro.parallel.engine",
            "run_tasks_partial",
            "parallel.run_tasks",
            annotate=lambda args, result: {
                "tasks": len(result.results) if result is not None else 0
            },
            cpu=True,
        )
        self.patch(
            "repro.batch.engine",
            "run_lanes",
            "batch.run_lanes",
            annotate=lambda args, result: {
                "lanes": len(result or ()),
                "fallbacks": sum(
                    1 for lane in result or () if lane.fallback is not None
                ),
            },
        )
        self.patch("repro.obs.ledger", "make_record", "obs.ledger.make_record")
        self.patch(
            "repro.obs.ledger",
            "RunLedger.append",
            "obs.ledger.append",
            annotate=lambda args, result: {"written": bool(result)},
        )
        self.patch(
            "repro.obs.ledger",
            "read_records",
            "obs.ledger.load",
            annotate=lambda args, result: {"records": len(result or ())},
        )
        self.patch(
            "repro.obs.ledger",
            "RunLedger.cached",
            "obs.ledger.cached",
            annotate=lambda args, result: {"hit": result is not None},
        )
        self.patch(
            "repro.resilience.checkpoint",
            "LedgerCheckpointer.offer",
            "resilience.checkpoint",
        )
        if not serve:
            return
        self.patch(
            "repro.serve.api",
            "ReproServer.submit",
            "serve.submit",
            annotate=lambda args, result: {"job": (result or (0, {}))[1].get("id")},
        )
        self.patch(
            "repro.serve.queue",
            "JobQueue.submit_and_snapshot",
            "serve.enqueue",
            annotate=lambda args, result: {"job": args[1]},
        )
        self.patch(
            "repro.serve.queue",
            "JobQueue.claim",
            "serve.claim",
            annotate=lambda args, result: (
                None if result is None else {"job": result.id}
            ),
        )
        self.patch(
            "repro.serve.dispatcher",
            "Dispatcher.execute",
            "serve.execute",
            annotate=lambda args, result: {"job": args[1].id},
            profile=True,
        )
        self.patch(
            "repro.serve.queue",
            "JobQueue.finish",
            "serve.finish",
            annotate=lambda args, result: {"job": args[1]},
        )

    # -- output ---------------------------------------------------------------

    def layer_split(self) -> dict:
        """cProfile self time grouped by the repro module defining each
        function.  Built-ins and standard-library functions are charged
        to the repro functions that called them (through chains of
        non-repro callers, split by each caller's measured share), so a
        layer's self time includes the C calls it makes."""
        import repro

        package = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        here = os.path.abspath(__file__)
        self.profile.create_stats()
        stats = self.profile.stats

        def owner(func):
            filename = os.path.abspath(func[0]) if func[0] != "~" else "~"
            if filename.startswith(package):
                return filename[len(package) :]
            return "<host>" if filename == here else None

        shares_memo: dict = {}

        def shares(func, seen=frozenset()):
            """How a call's time splits over the owned functions above it."""
            if owner(func) is not None:
                return {func: 1.0}
            if func in shares_memo:
                return shares_memo[func]
            callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
            weights = {c: v[2] for c, v in callers.items() if c not in seen}
            total = sum(weights.values())
            if total <= 0:
                weights = {c: v[1] for c, v in callers.items() if c not in seen}
                total = sum(weights.values())
            if total <= 0:
                return {None: 1.0}
            result: dict = {}
            for caller, weight in weights.items():
                for target, share in shares(caller, seen | {func}).items():
                    result[target] = result.get(target, 0.0) + share * weight / total
            if not seen:
                shares_memo[func] = result
            return result

        charged: dict = {}
        total = 0.0
        for func, (_cc, _nc, tt, _ct, _callers) in stats.items():
            total += tt
            for target, share in shares(func).items():
                charged[target] = charged.get(target, 0.0) + tt * share

        groups = {name: 0.0 for name in (*LAYERS.values(), "other")}
        audit = 0.0
        for func, seconds in charged.items():
            relative = owner(func) if func is not None else None
            group = "other"
            for prefix, layer in LAYERS.items():
                if relative is not None and relative.startswith(prefix):
                    group = layer
                    break
            groups[group] += seconds
            if relative is not None and (relative, func[2]) in AUDIT_FUNCTIONS:
                audit += seconds

        def calls(key):
            return sum(
                value[1]
                for func, value in stats.items()
                if (owner(func), func[2]) == key
            )

        return {
            "self_s": groups,
            "total_s": total,
            "audit_self_s": audit,
            "audit_calls": calls(("registers/base.py", "observe")),
            "decode_calls": calls(DECODE_FUNCTION),
        }

    def write(self, directory: str) -> None:
        events = [
            {
                "name": span["name"],
                "ph": "X",
                "ts": span["start"] * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "pid": span["pid"],
                "tid": span["tid"],
                "args": {"id": span["id"], "parent": span["parent"], **span["args"]},
            }
            for span in self.spans
        ]
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "profile": self.layer_split(),
                "forks": self.forks,
                "missing_hooks": self.missing,
            },
        }
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "trace.json"), "w") as handle:
            json.dump(payload, handle)


def peak_rss_kb() -> int:
    """Peak RSS of this process and of every child it reaped.

    ``VmHWM`` counts this image only; ``ru_maxrss`` of ``RUSAGE_SELF``
    would also carry the spawning process's RSS, recorded at ``exec``."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return max(int(line.split()[1]), children)
    except OSError:
        pass
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, children)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--report", required=True, help="JSON written at exit")
    parser.add_argument("--trace-dir", default="")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    options = parser.parse_args()
    argv = options.argv[1:] if options.argv[:1] == ["--"] else options.argv
    report = {}

    import repro.cli as cli

    build_parser = cli.build_parser

    def build_and_mark_ready():
        cli_parser = build_parser()
        parse_args = cli_parser.parse_args

        def parse_and_mark(*args, **kwargs):
            parsed = parse_args(*args, **kwargs)
            report["ready"] = time.monotonic()
            return parsed

        cli_parser.parse_args = parse_and_mark
        return cli_parser

    cli.build_parser = build_and_mark_ready
    tracer = Tracer() if options.trace_dir else None
    serve = argv[:1] == ["serve"]
    if tracer is not None:
        tracer.install(serve)
        if not serve:
            tracer.profile.enable()
    try:
        return cli.main(argv)
    finally:
        if tracer is not None:
            tracer.profile.disable()
            tracer.write(options.trace_dir)
        report["peak_rss_kb"] = peak_rss_kb()
        with open(options.report, "w") as handle:
            json.dump(report, handle)


if __name__ == "__main__":
    sys.exit(main())
