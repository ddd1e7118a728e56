"""Hot-path fast paths: null spans, recording gates, inlined RNG draws.

The optimisation contract is behavioural equivalence: every fast path
must produce bit-identical observable output to the code it replaced.
These tests pin the equivalences directly (the A/B golden tests pin them
end-to-end).
"""

import random

from repro.consensus.ads import AdsConsensus
from repro.obs.metrics import MetricsRegistry
from repro.runtime.rng import derive_rng
from repro.runtime.scheduler import RandomScheduler
from repro.runtime.simulation import Simulation
from repro.runtime.trace import NULL_SPAN, NullSpan


def _outcome_fields(run):
    return (
        dict(run.decisions),
        run.total_steps,
        dict(run.outcome.steps_by_pid),
    )


def _audit_fields(run):
    return (run.audit.max_magnitude, run.audit.max_width, run.audit.writes)


def test_all_instrumentation_modes_agree_across_ten_seeds():
    """bare / metrics-on / trace-on runs are indistinguishable per seed.

    The memory audit is part of metrics mode: bare runs skip it and carry
    ``audit=None``; the two metrics-on modes audit identically.
    """
    for seed in range(10):
        inputs = [(seed + i) % 2 for i in range(4)]
        bare = AdsConsensus().run(
            inputs, seed=seed, metrics=MetricsRegistry(enabled=False)
        )
        metrics = AdsConsensus().run(inputs, seed=seed)
        trace = AdsConsensus().run(
            inputs, seed=seed, record_events=True, record_spans=True
        )
        assert bare.audit is None
        assert _outcome_fields(bare) == _outcome_fields(metrics)
        assert _outcome_fields(metrics) == _outcome_fields(trace)
        assert _audit_fields(metrics) == _audit_fields(trace)


def test_null_span_only_when_nothing_records():
    def noop(ctx):
        return None
        yield  # pragma: no cover

    grid = {
        (False, False): True,
        (True, False): False,
        (False, True): False,
        (True, True): False,
    }
    for (events, spans), expect_null in grid.items():
        sim = Simulation(
            1,
            RandomScheduler(seed=0),
            seed=0,
            record_events=events,
            record_spans=spans,
        )
        sim.spawn(0, noop)
        ctx = sim.processes[0].ctx
        assert ctx.recording == (events or spans)
        span = ctx.begin_span("scan", "M")
        assert (span is NULL_SPAN) == expect_null


def test_null_span_discards_writes_and_end_is_noop():
    span = NULL_SPAN
    span.meta["wseq"] = (1, 2, 3)
    span.meta.update(rounds=7)
    assert span.meta.setdefault("k", "fallback") == "fallback"
    assert dict(span.meta) == {}
    assert isinstance(span, NullSpan)
    assert span.is_open
    assert not span.precedes(span)
    assert not span.overlaps(span)


def test_end_span_ignores_null_span_without_clock_traffic():
    def noop(ctx):
        return None
        yield  # pragma: no cover

    sim = Simulation(
        1,
        RandomScheduler(seed=0),
        seed=0,
        record_events=False,
        record_spans=False,
    )
    sim.spawn(0, noop)
    ctx = sim.processes[0].ctx
    before = sim._clock
    span = ctx.begin_span("scan", "M")
    ctx.end_span(span, result=(1, 2))
    assert sim._clock == before  # no ticks consumed on the disabled path


def test_span_steps_identical_with_and_without_event_recording():
    """Span-only recording keeps the tick discipline of full recording."""

    def spans_of(record_events):
        run = AdsConsensus().run(
            [0, 1, 1, 0],
            seed=3,
            record_events=record_events,
            record_spans=True,
            keep_simulation=True,
        )
        return [
            (s.pid, s.kind, s.target, s.invoke_step, s.response_step)
            for s in run.simulation.trace.spans
        ]

    assert spans_of(record_events=True) == spans_of(record_events=False)


def test_event_steps_identical_with_and_without_span_recording():
    def events_of(record_spans):
        run = AdsConsensus().run(
            [0, 1, 1, 0],
            seed=3,
            record_events=True,
            record_spans=record_spans,
            keep_simulation=True,
        )
        return run.simulation.trace.events

    assert events_of(record_spans=True) == events_of(record_spans=False)


def test_inlined_scheduler_draw_matches_random_choice_stream():
    """The unweighted draw consumes the exact bits ``Random.choice`` would.

    Replays a mixed sequence of runnable-set sizes (including the n=1
    fast-looking case, which still burns one getrandbits draw) on a
    scheduler and on a reference ``Random.choice``, then checks the two
    underlying generators are left in the same state.
    """
    scheduler = RandomScheduler(seed=42)
    reference = derive_rng(42, "random-scheduler")
    mixer = random.Random(7)
    for _ in range(500):
        size = mixer.randint(1, 9)
        runnable = list(range(size))
        assert scheduler.choose(None, runnable) == reference.choice(runnable)
    # Identical draw order implies identical generator state afterwards.
    assert scheduler._rng.getstate() == reference.getstate()


def test_scheduler_reset_replays_identical_schedule():
    scheduler = RandomScheduler(seed=11)
    first = [scheduler.choose(None, [0, 1, 2, 3]) for _ in range(64)]
    scheduler.reset()
    second = [scheduler.choose(None, [0, 1, 2, 3]) for _ in range(64)]
    assert first == second
