"""Tests for the paper's arrow-based scannable memory (§2.2)."""

import json

import pytest

from repro.consensus import AdsConsensus
from repro.consensus import ads as ads_module
from repro.faults import FaultPlan
from repro.registers import MemoryAudit
from repro.runtime import RandomScheduler, RoundRobinScheduler, Scheduler, Simulation
from repro.runtime.adversary import LockstepAdversary
from repro.snapshot import ArrowScannableMemory
from repro.snapshot.arrows import _TOGGLE, _VALUE, _WSEQ, ScanRetriesExceeded


def _scan_write_factory(mem, writes=3):
    def factory(pid):
        def body(ctx):
            views = []
            for k in range(writes):
                yield from mem.write(ctx, (pid, k))
                views.append(tuple((yield from mem.scan(ctx))))
            return views

        return body

    return factory


def test_scan_sees_own_write_immediately():
    sim = Simulation(2, RoundRobinScheduler(), seed=0)
    mem = ArrowScannableMemory(sim, "M", 2, initial="empty")

    def factory(pid):
        def body(ctx):
            yield from mem.write(ctx, f"v{pid}")
            return (yield from mem.scan(ctx))

        return body

    sim.spawn_all(factory)
    outcome = sim.run()
    for pid, view in outcome.decisions.items():
        assert view[pid] == f"v{pid}"


def test_solo_scan_returns_initial_values():
    sim = Simulation(3, seed=0)
    mem = ArrowScannableMemory(sim, "M", 3, initial=0)

    def factory(pid):
        def body(ctx):
            if pid == 0:
                return tuple((yield from mem.scan(ctx)))
            return None
            yield  # pragma: no cover

        return body

    sim.spawn_all(factory)
    assert sim.run().decisions[0] == (0, 0, 0)


def test_quiescent_scan_needs_exactly_one_round():
    sim = Simulation(2, RoundRobinScheduler(), seed=0)
    mem = ArrowScannableMemory(sim, "M", 2)

    def factory(pid):
        def body(ctx):
            if pid == 0:
                yield from mem.write(ctx, "x")
            else:
                # run after 0 by scheduling; quiescent at scan time
                for _ in range(3):
                    yield from mem.write(ctx, "y")
                view = yield from mem.scan(ctx)
                return view

        return body

    sim.spawn_all(factory)
    sim.run()
    scans = [s for s in sim.trace.spans if s.kind == "scan"]
    assert scans[-1].meta["rounds"] == 1


def test_writer_turns_arrows_before_publishing():
    sim = Simulation(2, RoundRobinScheduler(), seed=0)
    mem = ArrowScannableMemory(sim, "M", 2)

    def factory(pid):
        def body(ctx):
            if pid == 1:
                yield from mem.write(ctx, "v")

        return body

    sim.spawn(1, factory(1))
    # First step: the arrow A[0][1] flips to 1; V not yet written.
    sim.step()
    assert mem.A[0][1].peek() == 1
    assert mem.V[1].peek()[0] is None
    sim.step()
    assert mem.V[1].peek()[0] == "v"


def test_concurrent_write_forces_scan_retry():
    # Scripted: scanner clears arrows + collects; a writer completes a full
    # write in between; the scan must go back to L.
    sim = Simulation(2, seed=0)
    mem = ArrowScannableMemory(sim, "M", 2)

    def writer(ctx):
        yield from mem.write(ctx, "w")

    def scanner(ctx):
        view = yield from mem.scan(ctx)
        return tuple(view)

    sim.spawn(0, scanner)
    sim.spawn(1, writer)
    # Scanner: clear arrow (1 step), read V (1), ... interleave writer's
    # 2 steps right after the scanner's first collect read.
    from repro.runtime import ScriptedScheduler

    sim.scheduler = ScriptedScheduler([0, 0, 1, 1, 0, 0, 0])
    sim.run()
    scans = [s for s in sim.trace.spans if s.kind == "scan"]
    assert scans[0].meta["rounds"] >= 2
    assert sim.outcome().decisions[0][1] == "w"


def test_max_rounds_guard():
    sim = Simulation(2, seed=0)
    mem = ArrowScannableMemory(sim, "M", 2, max_rounds=1)

    def factory(pid):
        def body(ctx):
            if pid == 0:
                view = yield from mem.scan(ctx)
                return tuple(view)
            while True:
                yield from mem.write(ctx, "spam")

        return body

    sim.spawn_all(factory)
    from repro.runtime import ScriptedScheduler

    sim.scheduler = ScriptedScheduler([0, 0, 1, 1, 0, 0, 0])
    with pytest.raises(ScanRetriesExceeded):
        sim.run(10_000)


def test_unknown_arrow_kind_rejected():
    sim = Simulation(2, seed=0)
    with pytest.raises(ValueError):
        ArrowScannableMemory(sim, "M", 2, arrow_kind="quantum")


def test_bloom_arrow_variant_works_end_to_end():
    sim = Simulation(3, RandomScheduler(seed=5), seed=5)
    mem = ArrowScannableMemory(sim, "M", 3, arrow_kind="bloom")
    sim.spawn_all(_scan_write_factory(mem, writes=2))
    outcome = sim.run(500_000)
    assert outcome.finished
    from repro.snapshot import check_all_properties

    assert check_all_properties(sim.trace, "M", 3) == []


def test_audit_excludes_ghost_sequence_numbers():
    audit = MemoryAudit()
    sim = Simulation(2, RandomScheduler(seed=1), seed=1)
    mem = ArrowScannableMemory(sim, "M", 2, audit=audit)
    sim.spawn_all(_scan_write_factory(mem, writes=30))
    sim.run(500_000)
    # 60 writes happened; ghost wseqs reach 30 but the audit must only see
    # the algorithmic fields (values (pid, k<=29) plus toggle bits).
    assert audit.max_magnitude <= 29


def test_scan_attempts_counter_accumulates():
    sim = Simulation(3, RandomScheduler(seed=2), seed=2)
    mem = ArrowScannableMemory(sim, "M", 3)
    sim.spawn_all(_scan_write_factory(mem, writes=3))
    sim.run(500_000)
    scans = [s for s in sim.trace.spans if s.kind == "scan"]
    assert mem.scan_attempts() == sum(s.meta["rounds"] for s in scans)


# -- inline register accesses against the delegated reference ----------------


class DelegatedArrowMemory(ArrowScannableMemory):
    """Reference: the scan and write bodies from before the inline step
    tables, with every register access delegated through the register's
    ``read``/``write`` generator."""

    def write(self, ctx, value):
        i = ctx.pid
        span = ctx.begin_span("write", self.name, value)
        self._writes.inc()
        arrow_toggles = self._arrow_toggles
        for reg in [self.A[j][i] for j in range(self.n) if j != i]:
            yield from reg.write(ctx, 1)
            arrow_toggles.inc()
        self._toggle[i] ^= 1
        self._wseq[i] += 1
        span.meta["wseq"] = self._wseq[i]
        cell = (value, self._toggle[i], self._wseq[i] if self.ghost else 0)
        if self.audit is not None:
            self._value_magnitude.set_max(
                self.audit.observe(f"{self.name}.V[{i}]", (value, self._toggle[i]))
            )
        yield from self._v_regs[i].write(ctx, cell)
        self._last_written[i] = value
        ctx.end_span(span)

    def scan(self, ctx):
        i = ctx.pid
        span = ctx.begin_span("scan", self.name)
        self._scans.inc()
        others = [j for j in range(self.n) if j != i]
        scan_arrows = [self.A[i][j] for j in others]
        other_vregs = [self._v_regs[j] for j in others]
        arrow_toggles = self._arrow_toggles
        max_rounds = self.max_rounds
        first: list = []
        second: list = []
        arrows: list = []
        rounds = 0
        while True:
            rounds += 1
            self._attempts += 1
            if rounds > 1:
                self._retries.inc()
            if max_rounds is not None and rounds > max_rounds:
                raise ScanRetriesExceeded(
                    f"scan by {i} on {self.name} exceeded {max_rounds} rounds"
                )
            for reg in scan_arrows:
                yield from reg.write(ctx, 0)
                arrow_toggles.inc()
            first.clear()
            for reg in other_vregs:
                first.append((yield from reg.read(ctx)))
            second.clear()
            for reg in other_vregs:
                second.append((yield from reg.read(ctx)))
            arrows.clear()
            for reg in scan_arrows:
                arrows.append((yield from reg.read(ctx)))
            clean = True
            for k in range(len(second)):
                f = first[k]
                s = second[k]
                if arrows[k] != 0 or f[_VALUE] != s[_VALUE] or f[_TOGGLE] != s[_TOGGLE]:
                    clean = False
                    break
            if clean:
                break
        self._scan_rounds.observe(rounds)
        view = []
        k = 0
        for j in range(self.n):
            if j == i:
                view.append(self._last_written[i])
            else:
                view.append(second[k][_VALUE])
                k += 1
        if ctx.recording:
            wseqs = []
            k = 0
            for j in range(self.n):
                if j == i:
                    wseqs.append(self._wseq[i] if self.ghost else 0)
                else:
                    wseqs.append(second[k][_WSEQ])
                    k += 1
            span.meta["wseqs"] = tuple(wseqs)
            span.meta["rounds"] = rounds
            ctx.end_span(span, tuple(view))
        return view


class GrantSpy(Scheduler):
    """Wraps a scheduler; records every granted pid with its pending intent."""

    def __init__(self, inner):
        self.inner = inner
        self.grants = []

    def reset(self):
        self.inner.reset()

    def choose(self, sim, runnable):
        pid = self.inner.choose(sim, runnable)
        self.grants.append((pid, sim.processes[pid].pending))
        return pid


def _observe(monkeypatch, memory_class, n, seed, scheduler, **run_kwargs):
    monkeypatch.setattr(ads_module, "ArrowScannableMemory", memory_class)
    spy = GrantSpy(scheduler)
    run = AdsConsensus().run(
        [(seed + pid) % 2 for pid in range(n)],
        scheduler=spy,
        seed=seed,
        record_events=True,
        record_spans=True,
        keep_simulation=True,
        **run_kwargs,
    )
    assert isinstance(run.simulation.shared["mem"], memory_class)
    outcome = run.outcome
    return {
        "grants": spy.grants,
        "events": run.simulation.trace.events,
        "spans": run.simulation.trace.spans,
        "metrics": outcome.metrics.to_json(),
        "decisions": outcome.decisions,
        "steps": (outcome.total_steps, outcome.steps_by_pid),
        "stats": run.stats,
    }


def _assert_same_op_stream(monkeypatch, n, seed, make_scheduler, **run_kwargs):
    inline = _observe(
        monkeypatch, ArrowScannableMemory, n, seed, make_scheduler(), **run_kwargs
    )
    delegated = _observe(
        monkeypatch, DelegatedArrowMemory, n, seed, make_scheduler(), **run_kwargs
    )
    assert inline["grants"] and inline["events"]
    for key in inline:
        assert inline[key] == delegated[key], (key, n, seed)
    return json.loads(inline["metrics"])["counters"]


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("seed", range(5))
def test_inline_accesses_match_delegated_reference(monkeypatch, n, seed):
    _assert_same_op_stream(monkeypatch, n, seed, lambda: RandomScheduler(seed))


def test_inline_accesses_match_delegated_reference_under_faults(monkeypatch):
    plan = FaultPlan(seed=3, stale_read_rate=0.02, lost_write_rate=0.02)
    counters = _assert_same_op_stream(
        monkeypatch, 3, 1, lambda: RandomScheduler(1), fault_plan=plan
    )
    assert counters["faults.injected{kind=stale_read}"] > 0
    assert counters["faults.injected{kind=lost_write}"] > 0


def test_inline_accesses_match_delegated_reference_under_lockstep(monkeypatch):
    _assert_same_op_stream(
        monkeypatch, 3, 2, lambda: LockstepAdversary(memory_name="mem", seed=2)
    )
